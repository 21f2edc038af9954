package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/shard/chaosnet"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// DataSpec tells a worker process how to materialize the training matrix on
// its own, exactly as the alstrain front-end does: generate or read the
// dataset, then carve off the held-out fraction with dataset.Split seeded at
// Seed+1. Dataset generation and splitting are deterministic, so every
// worker — and the single-process reference run — sees byte-identical
// ratings, which is what the trainer's bit-identity guarantee rests on.
type DataSpec struct {
	Preset   string  `json:"preset,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Input    string  `json:"input,omitempty"`
	OneBased bool    `json:"one_based,omitempty"`
	Compact  bool    `json:"compact,omitempty"`
	TestFrac float64 `json:"test_frac"`
	Seed     int64   `json:"seed"`
}

// Load materializes the training matrix the spec describes.
func (sp DataSpec) Load() (*sparse.Matrix, error) {
	var ds *dataset.Dataset
	switch {
	case sp.Input != "":
		if sp.Compact {
			cd, err := dataset.LoadCompact(sp.Input, sp.OneBased)
			if err != nil {
				return nil, err
			}
			ds = cd.Dataset
		} else {
			var err error
			ds, err = dataset.Load(sp.Input, sp.OneBased)
			if err != nil {
				return nil, err
			}
		}
	case sp.Preset != "":
		p, err := dataset.PresetByName(sp.Preset)
		if err != nil {
			return nil, err
		}
		scale := sp.Scale
		if scale <= 0 {
			scale = 0.01
		}
		ds = p.ScaledForBench(scale).Generate(sp.Seed)
	default:
		return nil, fmt.Errorf("shard: data spec names neither an input file nor a preset")
	}
	mx := ds.Matrix
	if sp.TestFrac > 0 {
		train, _, err := dataset.Split(mx, sp.TestFrac, sp.Seed+1)
		if err != nil {
			return nil, err
		}
		mx = train
	}
	return mx, nil
}

// TrainerConfig configures a distributed data-parallel training run.
type TrainerConfig struct {
	// Workers is the number of worker processes (>= 1; 1 is a degenerate
	// but valid single-worker exchange).
	Workers int
	// ListenAddr is the coordinator's listen address (default
	// "127.0.0.1:0" — an ephemeral loopback port).
	ListenAddr string
	// Spawn starts worker rank, pointing it at the coordinator address,
	// and returns a stop function (called on coordinator failure so no
	// worker outlives a dead run; it must be idempotent — the supervisor
	// may call it again at shutdown). Nil runs workers as in-process
	// goroutines — the unit-test and library mode; alstrain execs itself
	// with -dist-rank instead. The supervisor also calls Spawn to replace
	// a failed rank mid-run.
	Spawn func(rank int, addr string) (stop func(), err error)
	// Timeout bounds the worker handshake and the end-of-run span
	// collection read (default 10m). Liveness during the exchange itself
	// is governed by the much tighter HeartbeatTimeout and RoundTimeout.
	Timeout time.Duration

	// HeartbeatInterval is how often a worker emits a liveness frame while
	// computing (default 1s; <0 disables heartbeats).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long the coordinator waits without a sign of
	// life — a heartbeat or payload bytes — before declaring a worker hung
	// (default 5s, and never less than twice the interval).
	HeartbeatTimeout time.Duration
	// RoundTimeout bounds one half-iteration exchange end to end, catching
	// failures liveness cannot (a worker that heartbeats forever but never
	// sends its shard). Default: Timeout.
	RoundTimeout time.Duration
	// SpawnTimeout bounds a (re)spawned worker's dial-hello-config
	// handshake (default: Timeout).
	SpawnTimeout time.Duration
	// MaxRespawns is the per-run budget of worker respawns before the
	// supervisor stops replacing dead ranks and elastically downscales to
	// the survivors instead (default 3; negative disables respawning, so
	// the first failure downscales).
	MaxRespawns int
	// NetChaos, when set, wraps every accepted worker connection with the
	// deterministic fault plan — the failure-injection test mode behind
	// alstrain -net-chaos.
	NetChaos *chaosnet.Plan
	// Interrupt, when non-nil and closed (or sent to), stops the run at
	// the next iteration boundary: the coordinator writes a final
	// checkpoint, tears the workers down, and returns ErrInterrupted.
	Interrupt <-chan struct{}
	// Logf, when set, receives supervision events (failures, respawns,
	// downscales) — alstrain wires log.Printf.
	Logf func(format string, args ...any)

	K              int
	Lambda         float32
	Iterations     int
	Seed           int64
	WeightedLambda bool
	// Flat selects the flat-baseline scheduling inside each worker;
	// Variant the kernel toggles (UseRecommended substitutes the host
	// recommendation vec+fus when Variant is zero).
	Flat           bool
	Variant        variant.Options
	UseRecommended bool
	// Threads is the per-worker goroutine count (0 = GOMAXPROCS).
	Threads int

	// Data is shipped to every worker, which loads the training matrix
	// itself rather than receiving it over the wire.
	Data DataSpec

	// Checkpointing (coordinator-side, same semantics as core.Train): the
	// assembled factors are written after every CheckpointEvery-th
	// iteration and the final one, and Resume restarts from the newest
	// valid checkpoint, shipping the restored factors to the workers.
	CheckpointDir   string
	CheckpointEvery int
	CheckpointKeep  int
	Resume          bool
	CheckpointFS    checkpoint.FS
	// CheckpointPrecision selects the factor encoding for written
	// checkpoints (quant.F32 default). Quantized checkpoints are smaller
	// and serve directly at that precision, but cannot seed Resume.
	CheckpointPrecision quant.Precision

	// Registry, when set, gains als_dist_broadcast_bytes_total (the bytes
	// relayed through the coordinator) plus the supervision counters:
	// als_dist_worker_failures_total{reason}, als_dist_respawns_total and
	// als_dist_round_deadline_exceeded_total.
	Registry *obs.Registry

	// Tracer, when set and sampling the run, records a root "train" span
	// with per-half-iteration gather/broadcast children (one wait span per
	// rank, so the straggler is visible), tells every worker to trace its
	// own compute/gather/broadcast spans, and ingests those spans when the
	// workers ship them back over a frameSpans TCP frame at the end of the
	// run. Worker failures annotate the half span they interrupted.
	Tracer *rtrace.Tracer
}

// TrainInfo reports how a distributed run went.
type TrainInfo struct {
	Workers int
	Seconds float64
	// BroadcastBytes is the total exchange traffic through the
	// coordinator: every factor shard received plus every assembled
	// factor matrix sent, frame headers included.
	BroadcastBytes int64
	ResumedFrom    int
	Variant        string
	// Supervision outcomes: worker failures detected, ranks respawned,
	// elastic downscales taken, and the cohort size that finished the run
	// (== Workers when nothing failed or every failure was respawned).
	Failures     int
	Respawns     int
	Downscales   int
	FinalWorkers int
}

// workerConfig is the JSON config frame the coordinator sends each worker.
type workerConfig struct {
	Workers        int      `json:"workers"`
	Rank           int      `json:"rank"`
	K              int      `json:"k"`
	Lambda         float32  `json:"lambda"`
	Iterations     int      `json:"iterations"`
	Seed           int64    `json:"seed"`
	WeightedLambda bool     `json:"weighted_lambda"`
	Flat           bool     `json:"flat"`
	VariantID      string   `json:"variant_id"`
	Threads        int      `json:"threads"`
	StartIteration int      `json:"start_iteration"`
	Data           DataSpec `json:"data"`
	// StartY makes the worker's first computed half StartIteration+1's Y
	// half instead of its X half — how a rank respawned mid-iteration
	// rejoins without redoing the half that already completed.
	StartY bool `json:"start_y,omitempty"`
	// Seeded tells the worker two full factor frames (X then Y, tagged
	// StartIteration) follow the config, seeding a resumed or respawned
	// rank with the coordinator's in-memory state.
	Seeded bool `json:"seeded,omitempty"`
	// HeartbeatMillis is the liveness frame period (0 = no heartbeats).
	HeartbeatMillis int `json:"heartbeat_millis,omitempty"`
	// Trace tells the worker a frameTraceCtx follows the config and that it
	// must record per-half compute/gather/broadcast spans and ship them
	// back over frameSpans after the final iteration.
	Trace bool `json:"trace,omitempty"`
}

func (cfg *TrainerConfig) setDefaults() {
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 5
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Minute
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.HeartbeatInterval < 0 {
		cfg.HeartbeatInterval = 0
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.HeartbeatInterval > 0 && cfg.HeartbeatTimeout < 2*cfg.HeartbeatInterval {
		cfg.HeartbeatTimeout = 2 * cfg.HeartbeatInterval
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = cfg.Timeout
	}
	if cfg.SpawnTimeout <= 0 {
		cfg.SpawnTimeout = cfg.Timeout
	}
	if cfg.MaxRespawns == 0 {
		cfg.MaxRespawns = 3
	}
	if cfg.UseRecommended && !cfg.Flat && cfg.Variant == (variant.Options{}) {
		cfg.Variant = variant.Options{Vector: true, Fused: true}
	}
}

// variantName labels the run the way core.Train does, so distributed
// checkpoints interoperate with single-process resume and the serving
// watcher.
func (cfg *TrainerConfig) variantName() string {
	if cfg.Flat {
		return "flat baseline"
	}
	return cfg.Variant.String()
}

// Train runs the coordinator of a distributed data-parallel ALS job. mx is
// the training matrix (already split, exactly what Data describes) — the
// coordinator uses it only for its dimensions and never touches the
// ratings; each worker loads its own copy from Data.
//
// The exchange is a BSP star: per half-iteration every worker solves its
// static row range and sends that shard up, the coordinator assembles the
// full side and broadcasts it back, and no worker starts the next half
// before holding the complete fixed factor. Row updates are pure functions
// of (row data, fixed factors, λ, k, variant), so the assembled model is
// bit-identical to a single-process run with the same seed.
//
// The run is supervised: workers heartbeat while computing, every frame is
// CRC-checked, and a worker that dies, hangs, or corrupts a frame is either
// respawned (seeded from the in-memory factors, redoing only the
// interrupted half-iteration) or — once MaxRespawns is spent — the cohort
// elastically downscales to the survivors, which still yields factors
// bit-identical to a clean run at that worker count.
func Train(mx *sparse.Matrix, cfg TrainerConfig) (*core.Model, *TrainInfo, error) {
	if mx == nil || mx.NNZ() == 0 {
		return nil, nil, fmt.Errorf("shard: empty rating matrix")
	}
	if cfg.Workers < 1 {
		return nil, nil, fmt.Errorf("shard: need at least 1 worker, got %d", cfg.Workers)
	}
	cfg.setDefaults()
	m, n, k := mx.Rows(), mx.Cols(), cfg.K
	vname := cfg.variantName()

	fsys := cfg.CheckpointFS
	if fsys == nil {
		fsys = checkpoint.OS
	}
	start, resumedFrom := 0, 0
	var resumeX, resumeY *linalg.Dense
	if cfg.CheckpointDir != "" && cfg.Resume {
		st, _, err := checkpoint.LoadLatest(fsys, cfg.CheckpointDir)
		switch {
		case err == nil:
			if err := resumeMismatch(st, &cfg, vname); err != nil {
				return nil, nil, err
			}
			if st.X.Rows != m || st.Y.Rows != n {
				return nil, nil, fmt.Errorf("shard: checkpoint factors (%dx%d users, %dx%d items) do not match the dataset (%d users, %d items)",
					st.X.Rows, st.X.Cols, st.Y.Rows, st.Y.Cols, m, n)
			}
			start, resumedFrom = st.Iteration, st.Iteration
			resumeX, resumeY = st.X, st.Y
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
		default:
			return nil, nil, fmt.Errorf("shard: resuming from %s: %w", cfg.CheckpointDir, err)
		}
	}

	// Coordinator-side factor buffers: assembled from worker shards each
	// half. The initial contents only matter when seeding workers (resumed
	// runs, and any rank respawned before the first exchange); a fresh run
	// overwrites both in the first iteration.
	x := linalg.NewDense(m, k)
	y := host.InitialY(n, k, cfg.Seed)
	if resumeX != nil {
		x, y = resumeX, resumeY
	}
	model := &core.Model{K: k, X: x, Y: y,
		Meta: core.Meta{Lambda: cfg.Lambda, WeightedLambda: cfg.WeightedLambda}}
	info := &TrainInfo{Workers: cfg.Workers, ResumedFrom: resumedFrom, Variant: vname}
	if start >= cfg.Iterations {
		// The checkpoint already covers the requested iterations; nothing
		// to distribute.
		info.FinalWorkers = cfg.Workers
		return model, info, nil
	}

	lis, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: coordinator listen: %w", err)
	}
	defer lis.Close()

	var traffic atomic.Int64
	spawn := cfg.Spawn
	if spawn == nil {
		spawn = func(rank int, addr string) (func(), error) {
			go RunWorker(addr, rank)
			return func() {}, nil
		}
	}

	// Head-sample the run: a sampled run traces the coordinator's exchange
	// spans and tells every worker to trace (and later ship) its own.
	runCtx, root := cfg.Tracer.StartRequest(context.Background(), "train", rtrace.SpanContext{})
	if root != nil {
		root.SetAttr("workers", strconv.Itoa(cfg.Workers))
		root.SetAttr("variant", vname)
	}

	sup := &supervisor{
		cfg: &cfg, lis: lis, addr: lis.Addr().String(), spawn: spawn,
		traffic: &traffic, m: m, n: n, k: k, x: x, y: y, vname: vname,
		total: cfg.Workers, workers: make([]*supWorker, cfg.Workers),
		runCtx: runCtx, root: root,
	}
	if cfg.Registry != nil {
		sup.failuresVec = cfg.Registry.Counter("als_dist_worker_failures_total",
			"Distributed-training worker failures detected by the supervisor, by reason.", "reason")
		sup.respawnsC = cfg.Registry.Counter("als_dist_respawns_total",
			"Worker ranks respawned by the distributed-training supervisor.").With()
		sup.deadlineC = cfg.Registry.Counter("als_dist_round_deadline_exceeded_total",
			"Half-iteration exchanges that exceeded the round deadline.").With()
	}
	defer sup.close()

	all := make([]int, cfg.Workers)
	for i := range all {
		all[i] = i
	}
	point0 := resumePoint{iter: start + 1}
	if failed := sup.spawnRanks(all, point0, start > 0); len(failed) > 0 {
		for _, r := range sortedRanks(failed) {
			sup.noteFailure(r, failed[r], root)
		}
		if _, err := sup.recover(failed, point0, root); err != nil {
			return nil, nil, err
		}
	}

	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	keep := cfg.CheckpointKeep
	if keep <= 0 {
		keep = 3
	}
	saveCkpt := func(it int) error {
		st := &checkpoint.State{
			Iteration: it, K: k, Lambda: cfg.Lambda,
			WeightedLambda: cfg.WeightedLambda, Seed: cfg.Seed,
			Variant: vname, X: x, Y: y,
			Precision: cfg.CheckpointPrecision,
		}
		if _, err := checkpoint.Save(fsys, cfg.CheckpointDir, st); err != nil {
			return fmt.Errorf("shard: iteration %d checkpoint: %w", it, err)
		}
		if err := checkpoint.GC(fsys, cfg.CheckpointDir, keep); err != nil {
			return fmt.Errorf("shard: iteration %d checkpoint GC: %w", it, err)
		}
		return nil
	}
	finish := func() {
		info.Seconds = time.Since(sup.started).Seconds()
		info.BroadcastBytes = traffic.Load()
		info.Failures = sup.failuresN
		info.Respawns = sup.respawns
		info.Downscales = sup.downscales
		info.FinalWorkers = sup.total
		if cfg.Registry != nil {
			cfg.Registry.Counter("als_dist_broadcast_bytes_total",
				"Factor-exchange bytes relayed through the distributed trainer coordinator.").
				With().Add(float64(info.BroadcastBytes))
		}
	}
	sup.started = time.Now()
	for it := start + 1; it <= cfg.Iterations; it++ {
		if err := sup.iterate(it); err != nil {
			return nil, nil, fmt.Errorf("shard: %w", err)
		}
		saved := false
		if cfg.CheckpointDir != "" && (it%every == 0 || it == cfg.Iterations) {
			if err := saveCkpt(it); err != nil {
				return nil, nil, err
			}
			saved = true
		}
		select {
		case <-cfg.Interrupt:
			if cfg.CheckpointDir != "" && !saved {
				if err := saveCkpt(it); err != nil {
					return nil, nil, err
				}
			}
			finish()
			return model, info, fmt.Errorf("%w at iteration %d/%d", ErrInterrupted, it, cfg.Iterations)
		default:
		}
	}
	sup.collectSpans()
	if root != nil {
		root.End()
	}
	finish()
	return model, info, nil
}

// resumeMismatch mirrors core.Train's checkpoint compatibility checks.
func resumeMismatch(st *checkpoint.State, cfg *TrainerConfig, vname string) error {
	switch {
	case st.K != cfg.K:
		return fmt.Errorf("shard: checkpoint has k=%d, run wants k=%d", st.K, cfg.K)
	case st.Lambda != cfg.Lambda:
		return fmt.Errorf("shard: checkpoint has lambda=%g, run wants %g", st.Lambda, cfg.Lambda)
	case st.Seed != cfg.Seed:
		return fmt.Errorf("shard: checkpoint has seed=%d, run wants %d", st.Seed, cfg.Seed)
	case st.WeightedLambda != cfg.WeightedLambda:
		return fmt.Errorf("shard: checkpoint lambda convention (weighted=%v) does not match run (weighted=%v)",
			st.WeightedLambda, cfg.WeightedLambda)
	case st.Variant != vname:
		return fmt.Errorf("shard: checkpoint was trained with variant %q, run wants %q", st.Variant, vname)
	case st.Precision != quant.F32:
		// A quantized checkpoint is lossy; resuming from dequantized
		// factors could not stay bit-identical to an uninterrupted run.
		return fmt.Errorf("shard: checkpoint factors are quantized (%v); resume requires a float32 checkpoint", st.Precision)
	}
	return nil
}

// RunWorker connects to a coordinator, identifies as rank, and serves one
// worker's share of a distributed training run: load the dataset the
// config frame describes, then per half-iteration solve the static row
// range this rank owns, send the shard up, and receive the assembled side
// back. While computing it emits heartbeat frames so the coordinator can
// tell a slow worker from a dead one. It returns when training completes or
// the coordinator goes away — a worker never outlives its run.
func RunWorker(coordAddr string, rank int) error {
	c, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("shard: worker %d dialing %s: %w", rank, coordAddr, err)
	}
	w := newWire(c, nil)
	defer w.close()

	hello := []byte{byte(rank), byte(rank >> 8), byte(rank >> 16), byte(rank >> 24)}
	if err := w.writeSmall(frameHello, hello); err != nil {
		return err
	}
	kind, body, err := w.readSmall(nil)
	if err != nil {
		return err
	}
	if kind != frameConfig {
		return fmt.Errorf("shard: worker %d: unexpected frame kind %d (want config)", rank, kind)
	}
	var cfg workerConfig
	if err := json.Unmarshal(body, &cfg); err != nil {
		return fmt.Errorf("shard: worker %d: bad config: %w", rank, err)
	}
	if cfg.Rank != rank {
		return fmt.Errorf("shard: worker %d received config for rank %d", rank, cfg.Rank)
	}

	// A traced run sends its span context right after the config; the worker
	// records its own compute/gather/broadcast spans into a local sample-1.0
	// tracer and ships them back over frameSpans after the final iteration.
	var wtr *rtrace.Tracer
	wctx := context.Background()
	var wroot *rtrace.Span
	if cfg.Trace {
		kind, body, err := w.readSmall(nil)
		if err != nil || kind != frameTraceCtx {
			return fmt.Errorf("shard: worker %d: expected trace context frame (kind=%d): %v", rank, kind, err)
		}
		remote, err := rtrace.ContextFromBinary(body)
		if err != nil {
			return fmt.Errorf("shard: worker %d: bad trace context: %w", rank, err)
		}
		iters := cfg.Iterations - cfg.StartIteration
		wtr = rtrace.New(rtrace.Config{
			Sample:   1,
			Capacity: iters*8 + 16,
			Slowest:  -1,
			Process:  "alstrain-worker" + strconv.Itoa(rank),
		})
		wctx, wroot = wtr.StartRequest(wctx, "worker"+strconv.Itoa(rank), remote)
		wroot.SetAttr("worker", strconv.Itoa(rank))
	}

	// Liveness: while the training loop computes, a side goroutine emits
	// heartbeat frames (writes are mutex-serialized with factor frames). A
	// failed heartbeat write means the coordinator is gone — close the
	// connection so every pending exchange I/O fails and the worker exits
	// instead of computing for a dead run.
	if cfg.HeartbeatMillis > 0 {
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			t := time.NewTicker(time.Duration(cfg.HeartbeatMillis) * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					if err := w.writeSmall(frameHeartbeat, nil); err != nil {
						w.close()
						return
					}
				}
			}
		}()
	}

	// From here on, failures are reported to the coordinator before
	// returning, so the supervisor sees the worker's message instead of a
	// bare connection reset.
	fail := func(err error) error {
		w.writeSmall(frameError, []byte(err.Error()))
		return err
	}

	v, err := variant.ParseID(cfg.VariantID)
	if err != nil {
		return fail(err)
	}
	mx, err := cfg.Data.Load()
	if err != nil {
		return fail(fmt.Errorf("worker %d: %w", rank, err))
	}
	m, n, k := mx.Rows(), mx.Cols(), cfg.K
	x := linalg.NewDense(m, k)
	y := host.InitialY(n, k, cfg.Seed)
	if cfg.Seeded {
		st := cfg.StartIteration
		if err := w.expectFactors(st, halfX, k, x.Data, 0, m, nil); err != nil {
			return fmt.Errorf("shard: worker %d seed: %w", rank, err)
		}
		if err := w.expectFactors(st, halfY, k, y.Data, 0, n, nil); err != nil {
			return fmt.Errorf("shard: worker %d seed: %w", rank, err)
		}
	}

	// The Y half runs the same row updates on Rᵀ, viewed zero-copy through
	// the CSC arrays exactly as host.Train does.
	rt := &sparse.CSR{NumRows: n, NumCols: m, RowPtr: mx.C.ColPtr, ColIdx: mx.C.RowIdx, Val: mx.C.Val}
	ru, err := host.NewRangeUpdater(host.Config{
		K: k, Lambda: cfg.Lambda, Workers: cfg.Threads,
		Flat: cfg.Flat, Variant: v, WeightedLambda: cfg.WeightedLambda,
	})
	if err != nil {
		return fail(fmt.Errorf("worker %d: %w", rank, err))
	}
	defer ru.Close()

	lo, hi := Range(m, rank, cfg.Workers)
	ylo, yhi := Range(n, rank, cfg.Workers)
	startIt := cfg.StartIteration + 1
	for it := startIt; it <= cfg.Iterations; it++ {
		if !(it == startIt && cfg.StartY) {
			hctx, hspan := workerHalfSpan(wctx, wroot, it, "x")
			_, cspan := rtrace.StartChild(hctx, "compute")
			err := ru.UpdateRange(mx.R, y, x, lo, hi, it, true)
			cspan.End()
			if err != nil {
				return fail(fmt.Errorf("worker %d iteration %d X: %w", rank, it, err))
			}
			_, gspan := rtrace.StartChild(hctx, "gather")
			err = w.writeFactors(factorHeader{Iter: uint32(it), Half: halfX, Lo: uint32(lo), Rows: uint32(hi - lo), K: uint32(k)}, x.Data[lo*k:hi*k])
			gspan.End()
			if err != nil {
				return err
			}
			_, bspan := rtrace.StartChild(hctx, "broadcast")
			err = w.expectFactors(it, halfX, k, x.Data, 0, m, nil)
			bspan.End()
			hspan.End()
			if err != nil {
				return err
			}
		}

		hctx, hspan := workerHalfSpan(wctx, wroot, it, "y")
		_, cspan := rtrace.StartChild(hctx, "compute")
		err = ru.UpdateRange(rt, x, y, ylo, yhi, it, false)
		cspan.End()
		if err != nil {
			return fail(fmt.Errorf("worker %d iteration %d Y: %w", rank, it, err))
		}
		_, gspan := rtrace.StartChild(hctx, "gather")
		err = w.writeFactors(factorHeader{Iter: uint32(it), Half: halfY, Lo: uint32(ylo), Rows: uint32(yhi - ylo), K: uint32(k)}, y.Data[ylo*k:yhi*k])
		gspan.End()
		if err != nil {
			return err
		}
		_, bspan := rtrace.StartChild(hctx, "broadcast")
		err = w.expectFactors(it, halfY, k, y.Data, 0, n, nil)
		bspan.End()
		hspan.End()
		if err != nil {
			return err
		}
	}
	if wroot != nil {
		wroot.End()
		if err := w.writeSmall(frameSpans, rtrace.EncodeSpans(wtr.Snapshot())); err != nil {
			return fmt.Errorf("shard: worker %d sending spans: %w", rank, err)
		}
	}
	return nil
}

// workerHalfSpan opens a traced worker's per-half-iteration span; untraced
// runs get the untouched context and a nil span back, so the per-phase
// StartChild calls below it all no-op.
func workerHalfSpan(ctx context.Context, root *rtrace.Span, it int, half string) (context.Context, *rtrace.Span) {
	if root == nil {
		return ctx, nil
	}
	hctx, span := rtrace.StartChild(ctx, "iter"+strconv.Itoa(it)+"/"+half)
	return hctx, span
}
