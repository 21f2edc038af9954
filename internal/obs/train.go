package obs

import (
	"strconv"
	"sync"
	"time"
)

// Stage indices for the per-row kernel timers. They mirror the paper's
// hotspot decomposition: S1 builds the Gram matrix, S2 gathers the
// right-hand side, S3 solves. Fused variants do S1 and S2 in one sweep
// that cannot be split, so it is accounted separately as s1+s2.
const (
	StageS1 = iota
	StageS2
	StageS3
	StageS12
	NumStages
)

// StageNames are the label values used for als_train_stage_seconds_total.
var StageNames = [NumStages]string{"s1", "s2", "s3", "s1+s2"}

// StageDur accumulates per-stage wall time inside one worker.
type StageDur [NumStages]time.Duration

// RunMeta identifies a training run for /runinfo and als_train_info.
type RunMeta struct {
	Program    string    `json:"program,omitempty"`
	Dataset    string    `json:"dataset,omitempty"`
	Rows       int       `json:"rows,omitempty"`
	Cols       int       `json:"cols,omitempty"`
	NNZ        int       `json:"nnz,omitempty"`
	K          int       `json:"k,omitempty"`
	Lambda     float64   `json:"lambda,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	Variant    string    `json:"variant,omitempty"`
	Mode       string    `json:"mode,omitempty"` // "explicit" or "implicit"
	Workers    int       `json:"workers,omitempty"`
	StartedAt  time.Time `json:"started_at"`
}

// WorkerShare is one worker's share of one half iteration: its busy wall
// time inside the half's job, chunks claimed, rows updated, and per-stage
// kernel time.
type WorkerShare struct {
	Busy   time.Duration
	Chunks int
	Rows   int
	Stage  StageDur
}

// Half is one completed half iteration as the training loop measured it.
// Workers is indexed by worker id and only read during RecordHalf.
type Half struct {
	Name    string // "X" or "Y"
	Dur     time.Duration
	Rows    int
	Workers []WorkerShare
}

// RowsPerSec is the half's row-update throughput.
func (h *Half) RowsPerSec() float64 {
	if secs := h.Dur.Seconds(); secs > 0 {
		return float64(h.Rows) / secs
	}
	return 0
}

// Stage sums the per-stage kernel time over the half's workers.
func (h *Half) Stage() StageDur {
	var tot StageDur
	for i := range h.Workers {
		for s, d := range h.Workers[i].Stage {
			tot[s] += d
		}
	}
	return tot
}

// TrainRecorder is the live mirror of a training run: run identity and
// progress counters for /runinfo, and — once Registered — the als_train_*
// and als_checkpoint_io_* families on /metrics. It is fed by the training
// loop at coarse grain (one call per half iteration, loss point and
// checkpoint, never per row). The run's timeline is not kept here: spans go
// to internal/rtrace, the one exporter.
//
// All methods are nil-safe: a nil *TrainRecorder records nothing, so call
// sites can stay unconditional outside the row-update hot loop.
type TrainRecorder struct {
	mu    sync.Mutex
	start time.Time
	meta  RunMeta

	iter     int // last completed full iteration
	lastLoss *float64
	totStage [NumStages]float64
	ckpts    int
	halves   int

	mIteration, mLoss, mRowsPerSec *Vec
	mHalves, mHalfSeconds, mRows   *Vec
	mStageSeconds                  *Vec
	mWorkerBusy, mWorkerIdle       *Vec
	mWorkerChunks, mWorkerRows     *Vec
	mCkptSeconds, mCkptBytes       *Vec
	mCkptOps                       *Vec
}

// NewTrainRecorder starts an empty recorder; the run clock starts now.
func NewTrainRecorder() *TrainRecorder {
	now := time.Now()
	return &TrainRecorder{start: now, meta: RunMeta{StartedAt: now, Mode: "explicit"}}
}

// SetMeta records what the caller knows about the run (the command layer:
// program, dataset name, hyperparameters).
func (r *TrainRecorder) SetMeta(program, dataset string, k int, lambda float64, iterations int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.meta.Program, r.meta.Dataset = program, dataset
	r.meta.K, r.meta.Lambda, r.meta.Iterations = k, lambda, iterations
}

// SetShape records what the solver knows about the run (matrix dimensions,
// resolved worker count, code variant and training mode). Called by
// host.Train.
func (r *TrainRecorder) SetShape(rows, cols, nnz, workers int, variant, mode string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.meta.Rows, r.meta.Cols, r.meta.NNZ = rows, cols, nnz
	r.meta.Workers, r.meta.Variant, r.meta.Mode = workers, variant, mode
}

// Register mirrors the recorder into reg as live Prometheus metrics.
func (r *TrainRecorder) Register(reg *Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mIteration = reg.Gauge("als_train_iteration", "Last completed full ALS iteration.")
	r.mLoss = reg.Gauge("als_train_loss", "Latest regularized training loss (Eq. 2).")
	r.mRowsPerSec = reg.Gauge("als_train_rows_per_second", "Row-update throughput of the most recent half iteration.", "half")
	r.mHalves = reg.Counter("als_train_halves_total", "Completed half iterations.", "half")
	r.mHalfSeconds = reg.Counter("als_train_half_seconds_total", "Wall time spent in half iterations.", "half")
	r.mRows = reg.Counter("als_train_rows_total", "Row updates performed.", "half")
	r.mStageSeconds = reg.Counter("als_train_stage_seconds_total",
		"Kernel wall time by ALS stage and training mode, summed across workers (the paper's S1/S2/S3 hotspot shares; fused variants report the indivisible sweep as s1+s2).", "stage", "mode")
	r.mWorkerBusy = reg.Counter("als_train_worker_busy_seconds_total", "Per-worker time spent executing half-iteration jobs.", "worker")
	r.mWorkerIdle = reg.Counter("als_train_worker_idle_seconds_total", "Per-worker time parked inside a half iteration while others still ran (imbalance).", "worker")
	r.mWorkerChunks = reg.Counter("als_train_worker_chunks_total", "Chunks claimed from the shared cursor per worker.", "worker")
	r.mWorkerRows = reg.Counter("als_train_worker_rows_total", "Row updates performed per worker.", "worker")
	r.mCkptSeconds = reg.Counter("als_checkpoint_io_seconds_total", "Time spent in checkpoint I/O.", "op")
	r.mCkptBytes = reg.Counter("als_checkpoint_io_bytes_total", "Bytes moved by checkpoint I/O.", "op")
	r.mCkptOps = reg.Counter("als_checkpoint_io_total", "Checkpoint operations by outcome.", "op", "result")
	reg.Func("als_train_info", "Training-run identity (value is always 1).", Gauge,
		[]string{"program", "dataset", "variant", "mode", "k", "workers"}, func() []Sample {
			r.mu.Lock()
			m := r.meta
			r.mu.Unlock()
			return []Sample{{Labels: []string{m.Program, m.Dataset, m.Variant, m.Mode,
				strconv.Itoa(m.K), strconv.Itoa(m.Workers)}, Value: 1}}
		})
}

// RecordHalf counts one completed half iteration and publishes its
// throughput, stage shares and per-worker utilization.
func (r *TrainRecorder) RecordHalf(h *Half) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.halves++
	stage := h.Stage()
	for s, d := range stage {
		r.totStage[s] += d.Seconds()
	}
	if r.mHalves == nil {
		return
	}
	r.mHalves.With(h.Name).Inc()
	r.mHalfSeconds.With(h.Name).Add(h.Dur.Seconds())
	r.mRows.With(h.Name).Add(float64(h.Rows))
	r.mRowsPerSec.With(h.Name).Set(h.RowsPerSec())
	for s, d := range stage {
		if d > 0 {
			r.mStageSeconds.With(StageNames[s], r.meta.Mode).Add(d.Seconds())
		}
	}
	for w, sh := range h.Workers {
		lbl := strconv.Itoa(w)
		r.mWorkerBusy.With(lbl).Add(sh.Busy.Seconds())
		if idle := h.Dur - sh.Busy; idle > 0 {
			r.mWorkerIdle.With(lbl).Add(idle.Seconds())
		}
		r.mWorkerChunks.With(lbl).Add(float64(sh.Chunks))
		r.mWorkerRows.With(lbl).Add(float64(sh.Rows))
	}
}

// IterDone marks one full ALS iteration complete.
func (r *TrainRecorder) IterDone(iter int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.iter = iter
	if r.mIteration != nil {
		r.mIteration.Set(float64(iter))
	}
}

// RecordLoss publishes the latest loss measurement.
func (r *TrainRecorder) RecordLoss(loss float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastLoss = &loss
	if r.mLoss != nil {
		r.mLoss.Set(loss)
	}
}

// RecordCheckpoint counts one checkpoint save or load: its duration, the
// encoded byte count, and whether it failed.
func (r *TrainRecorder) RecordCheckpoint(op string, d time.Duration, bytes int64, err error) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ckpts++
	if r.mCkptSeconds != nil {
		r.mCkptSeconds.With(op).Add(d.Seconds())
		r.mCkptBytes.With(op).Add(float64(bytes))
		result := "ok"
		if err != nil {
			result = "error"
		}
		r.mCkptOps.With(op, result).Inc()
	}
}

// TrainRunInfo is the /runinfo payload: run identity, progress and
// cumulative stage totals. The timeline is /debug/traces.
type TrainRunInfo struct {
	Meta          RunMeta            `json:"meta"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Iteration     int                `json:"iteration"`
	Halves        int                `json:"halves"`
	Checkpoints   int                `json:"checkpoints"`
	LastLoss      *float64           `json:"last_loss,omitempty"`
	StageSeconds  map[string]float64 `json:"stage_seconds_total,omitempty"`
}

// RunInfo snapshots the run for the /runinfo endpoint.
func (r *TrainRecorder) RunInfo() TrainRunInfo {
	if r == nil {
		return TrainRunInfo{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	info := TrainRunInfo{
		Meta:          r.meta,
		UptimeSeconds: time.Since(r.start).Seconds(),
		Iteration:     r.iter,
		Halves:        r.halves,
		Checkpoints:   r.ckpts,
		LastLoss:      r.lastLoss,
	}
	stage := make(map[string]float64)
	for s, secs := range r.totStage {
		if secs > 0 {
			stage[StageNames[s]] = secs
		}
	}
	if len(stage) > 0 {
		info.StageSeconds = stage
	}
	return info
}
