package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/framing"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/shard/chaosnet"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// DataSpec describes the training matrix the way the alstrain front-end
// materializes it: generate or read the dataset, then carve off the held-out
// fraction with dataset.Split seeded at Seed+1. Only the process that calls
// Train loads it: the ranks of a distributed run are sent their rows of the
// loaded matrix and never see a DataSpec.
type DataSpec struct {
	Preset   string  `json:"preset,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Input    string  `json:"input,omitempty"`
	OneBased bool    `json:"one_based,omitempty"`
	Compact  bool    `json:"compact,omitempty"`
	TestFrac float64 `json:"test_frac"`
	Seed     int64   `json:"seed"`
}

// Dataset materializes the dataset the spec names, before any split. A
// Compact input also yields the external ID of every dense user and item
// row, which alstrain stores in the model; the tables are nil otherwise.
func (sp DataSpec) Dataset() (ds *dataset.Dataset, userIDs, itemIDs []int64, err error) {
	switch {
	case sp.Input != "" && sp.Compact:
		cd, err := dataset.LoadCompact(sp.Input, sp.OneBased)
		if err != nil {
			return nil, nil, nil, err
		}
		return cd.Dataset, origIDs(cd.Users), origIDs(cd.Items), nil
	case sp.Input != "":
		ds, err = dataset.Load(sp.Input, sp.OneBased)
		return ds, nil, nil, err
	case sp.Preset != "":
		p, err := dataset.PresetByName(sp.Preset)
		if err != nil {
			return nil, nil, nil, err
		}
		scale := sp.Scale
		if scale <= 0 {
			scale = 0.01
		}
		return p.ScaledForBench(scale).Generate(sp.Seed), nil, nil, nil
	}
	return nil, nil, nil, fmt.Errorf("shard: data spec names neither an input file nor a preset")
}

func origIDs(m *dataset.IDMap) []int64 {
	ids := make([]int64, m.Len())
	for i := range ids {
		ids[i] = m.Orig(i)
	}
	return ids
}

// TrainerConfig configures a distributed data-parallel training run.
type TrainerConfig struct {
	// Workers is the number of worker processes (>= 1; 1 is a degenerate
	// but valid single-worker exchange).
	Workers int
	// Spawn starts worker rank, pointing it at the coordinator address,
	// and returns a stop function (called on coordinator failure so no
	// worker outlives a dead run; it must be idempotent — the supervisor
	// may call it again at shutdown). Nil runs workers as in-process
	// goroutines — the unit-test and library mode; alstrain execs itself
	// with -dist-rank instead. The supervisor also calls Spawn to replace
	// a failed rank mid-run.
	Spawn func(rank int, addr string) (stop func(), err error)

	// HeartbeatInterval is how often a worker emits a liveness frame while
	// computing (default 1s; <0 disables heartbeats).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long the coordinator waits without a sign of
	// life — a heartbeat or payload bytes — before declaring a worker hung
	// (default 5s, and never less than twice the interval).
	HeartbeatTimeout time.Duration
	// RoundTimeout bounds one half-iteration exchange end to end, catching
	// failures liveness cannot (a worker that heartbeats forever but never
	// sends its shard). Default: exchangeTimeout.
	RoundTimeout time.Duration
	// SpawnTimeout bounds a (re)spawned worker's dial-hello-config
	// handshake (default: exchangeTimeout).
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
	// Interrupt, when non-nil and closed, stops the run at the next
	// iteration boundary: the coordinator writes a final checkpoint, tears
	// the workers down, and returns ErrInterrupted.
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
	// recommendation when Variant is zero; see core.HostVariant).
	Flat           bool
	Variant        variant.Options
	UseRecommended bool
	// Threads is the per-worker goroutine count (0 = GOMAXPROCS).
	Threads int

	// Data is not used by Train, which ships every worker its rows of mx.
	// The field stays until bench/traced.go stops setting it (ROADMAP 1(d)).
	Data DataSpec

	// Checkpointing (coordinator-side, core.Train's own scaffold — see
	// core.Run): the assembled factors are written after every
	// CheckpointEvery-th iteration and the final one, and Resume restarts
	// from the newest valid checkpoint, shipping the restored factors to
	// the workers.
	CheckpointDir   string
	CheckpointEvery int
	CheckpointKeep  int
	Resume          bool
	CheckpointFS    checkpoint.FS
	// CheckpointPrecision selects the factor encoding for written
	// checkpoints (quant.F32 default). Quantized checkpoints are smaller
	// and serve directly at that precision, but cannot seed Resume.
	CheckpointPrecision quant.Precision

	// Registry, when set, gains als_dist_broadcast_bytes_total (the factor
	// and control bytes relayed through the coordinator),
	// als_dist_data_bytes_total (the rating slices shipped to the ranks)
	// plus the supervision counters:
	// als_dist_worker_failures_total{reason}, als_dist_respawns_total and
	// als_dist_round_deadline_exceeded_total.
	Registry *obs.Registry
	// Obs, when set, counts the run's checkpoint I/O (als_checkpoint_io_*),
	// as core.Config.Obs does for a single-process run.
	Obs *obs.TrainRecorder

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
	// factor matrix sent, frame headers and control frames included. The
	// rating slices are not in it.
	BroadcastBytes int64
	// DataBytes is the size of the data frames the coordinator sent: each
	// rank's rows of R and of Rᵀ, once per spawn, so a respawned rank or
	// a downscaled cohort adds what it was re-sent.
	DataBytes   int64
	ResumedFrom int
	Variant     string
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
	Workers        int     `json:"workers"`
	Rank           int     `json:"rank"`
	K              int     `json:"k"`
	Lambda         float32 `json:"lambda"`
	Iterations     int     `json:"iterations"`
	Seed           int64   `json:"seed"`
	WeightedLambda bool    `json:"weighted_lambda"`
	Flat           bool    `json:"flat"`
	VariantID      string  `json:"variant_id"`
	Threads        int     `json:"threads"`
	StartIteration int     `json:"start_iteration"`
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

// exchangeTimeout is the slack bound on the steps liveness does not govern:
// the default for a gather round and a worker's handshake, and the
// end-of-run span collection read. Liveness during the exchange itself is
// the much tighter HeartbeatTimeout's.
const exchangeTimeout = 10 * time.Minute

func (cfg *TrainerConfig) setDefaults() {
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 5
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
		cfg.RoundTimeout = exchangeTimeout
	}
	if cfg.SpawnTimeout <= 0 {
		cfg.SpawnTimeout = exchangeTimeout
	}
	if cfg.MaxRespawns == 0 {
		cfg.MaxRespawns = 3
	}
}

// Train runs the coordinator of a distributed data-parallel ALS job. mx is
// the training matrix (already split). The coordinator holds the one copy
// of it: each worker is sent the rows of R and of Rᵀ it owns, in two data
// frames after its config, and opens no file.
//
// The exchange is a BSP star: per half-iteration every worker solves its
// static row range and sends that shard up, the coordinator assembles the
// full side and broadcasts it back, and no worker starts the next half
// before holding the complete fixed factor. Row updates are pure functions
// of (row data, fixed factors, λ, k, variant), and a worker's row data is a
// CRC-checked copy of the coordinator's arrays, so the assembled model is
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
	// The run is labelled the way core.Train labels it, so distributed
	// checkpoints interoperate with single-process resume and the serving
	// watcher.
	var vname string
	cfg.Variant, vname = core.HostVariant(cfg.Variant, cfg.UseRecommended, cfg.Flat)

	// Head-sample the run: a sampled run traces the coordinator's exchange
	// and checkpoint spans and tells every worker to trace (and later ship)
	// its own.
	runCtx, root := cfg.Tracer.StartRequest(context.Background(), "train", rtrace.SpanContext{})
	defer root.End()
	root.SetAttr("workers", strconv.Itoa(cfg.Workers))
	root.SetAttr("variant", vname)
	root.SetAttr("linalg_kernel", linalg.KernelName())

	// The distributed path trains the explicit objective with the direct
	// solver, so the run's mode block is the zero one.
	run := core.NewRun(runCtx, &core.Config{
		K: k, Lambda: cfg.Lambda, Iterations: cfg.Iterations, Seed: cfg.Seed,
		WeightedLambda: cfg.WeightedLambda,
		CheckpointDir:  cfg.CheckpointDir, CheckpointEvery: cfg.CheckpointEvery,
		CheckpointKeep: cfg.CheckpointKeep, CheckpointFS: cfg.CheckpointFS,
		CheckpointPrecision: cfg.CheckpointPrecision, Resume: cfg.Resume,
		Obs: cfg.Obs, Interrupt: cfg.Interrupt,
	}, vname)
	st, err := run.Resume()
	if err != nil {
		return nil, nil, err
	}
	// Coordinator-side factor buffers: assembled from worker shards each
	// half. The initial contents only matter when seeding workers (resumed
	// runs, and any rank respawned before the first exchange); a fresh run
	// overwrites both in the first iteration.
	start, x, y := 0, linalg.NewDense(m, k), host.InitialY(n, k, cfg.Seed)
	if st != nil {
		if st.X.Rows != m || st.Y.Rows != n {
			return nil, nil, fmt.Errorf("shard: checkpoint factors (%dx%d users, %dx%d items) do not match the dataset (%d users, %d items)",
				st.X.Rows, st.X.Cols, st.Y.Rows, st.Y.Cols, m, n)
		}
		start, x, y = st.Iteration, st.X, st.Y
	}
	model := &core.Model{K: k, X: x, Y: y,
		Meta: core.Meta{Lambda: cfg.Lambda, WeightedLambda: cfg.WeightedLambda}}
	info := &TrainInfo{Workers: cfg.Workers, ResumedFrom: start, Variant: vname}
	if start >= cfg.Iterations {
		// The checkpoint already covers the requested iterations; nothing
		// to distribute.
		info.FinalWorkers = cfg.Workers
		return model, info, nil
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0") // the workers are this host's: an ephemeral loopback port
	if err != nil {
		return nil, nil, fmt.Errorf("shard: coordinator listen: %w", err)
	}
	defer lis.Close()

	var traffic, data atomic.Int64
	spawn := cfg.Spawn
	if spawn == nil {
		spawn = func(rank int, addr string) (func(), error) {
			go RunWorker(addr, rank)
			return func() {}, nil
		}
	}

	sup := &supervisor{
		cfg: &cfg, lis: lis, addr: lis.Addr().String(), spawn: spawn,
		traffic: &traffic, data: &data, r: mx.R, rt: mx.RT(), m: m, n: n, k: k, x: x, y: y, vname: vname,
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

	finish := func() {
		info.Seconds = time.Since(sup.started).Seconds()
		info.BroadcastBytes = traffic.Load()
		info.DataBytes = data.Load()
		info.Failures = sup.failuresN
		info.Respawns = sup.respawns
		info.Downscales = sup.downscales
		info.FinalWorkers = sup.total
		if cfg.Registry != nil {
			cfg.Registry.Counter("als_dist_broadcast_bytes_total",
				"Factor-exchange bytes relayed through the distributed trainer coordinator.").
				With().Add(float64(info.BroadcastBytes))
			cfg.Registry.Counter("als_dist_data_bytes_total",
				"Rating-matrix bytes the distributed trainer coordinator shipped to its workers.").
				With().Add(float64(info.DataBytes))
		}
	}
	sup.started = time.Now()
	for it := start + 1; it <= cfg.Iterations; it++ {
		if err := sup.iterate(it); err != nil {
			return nil, nil, fmt.Errorf("shard: %w", err)
		}
		if err := run.Boundary(it, x, y, nil); err != nil {
			if errors.Is(err, ErrInterrupted) {
				finish()
				return model, info, err
			}
			return nil, nil, fmt.Errorf("shard: iteration %d: %w", it, err)
		}
	}
	sup.collectSpans()
	finish()
	return model, info, nil
}

// Range returns the half-open row range [lo, hi) that rank i of `of` owns
// out of total rows: a static partition, so the coordinator and every
// worker agree on ownership without coordination.
func Range(total, i, of int) (lo, hi int) {
	return i * total / of, (i + 1) * total / of
}

// RunWorker connects to a coordinator, identifies as rank, and serves one
// worker's share of a distributed training run: receive the config and the
// rows of R and Rᵀ this rank owns, then per half-iteration solve those
// rows, send the shard up, and receive the assembled side back. While
// computing it emits heartbeat frames so the coordinator can tell a slow
// worker from a dead one. It returns when training completes or the
// coordinator goes away — a worker never outlives its run.
func RunWorker(coordAddr string, rank int) error {
	c, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("shard: worker %d dialing %s: %w", rank, coordAddr, err)
	}
	w := newWire(c, nil, nil)
	defer w.close()

	if err := w.writeSmall(frameHello, framing.HelloPayload(int32(rank))); err != nil {
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
	// The rank's rows of both sides arrive as two data frames. Each names
	// the other side's size as its column count, so the pair must describe
	// the static partition this rank computes for itself.
	_, sspan := rtrace.StartChild(wctx, "setup")
	r, xlo, err := w.expectData(halfX)
	if err != nil {
		return fmt.Errorf("shard: worker %d data: %w", rank, err)
	}
	rt, ylo, err := w.expectData(halfY)
	if err != nil {
		return fmt.Errorf("shard: worker %d data: %w", rank, err)
	}
	m, n, k := rt.NumCols, r.NumCols, cfg.K
	if lo, hi := Range(m, rank, cfg.Workers); lo != xlo || hi-lo != r.NumRows {
		return fail(fmt.Errorf("worker %d: received rows [%d,%d) of R (%d users), own [%d,%d)", rank, xlo, xlo+r.NumRows, m, lo, hi))
	}
	if lo, hi := Range(n, rank, cfg.Workers); lo != ylo || hi-lo != rt.NumRows {
		return fail(fmt.Errorf("worker %d: received rows [%d,%d) of Rᵀ (%d items), own [%d,%d)", rank, ylo, ylo+rt.NumRows, n, lo, hi))
	}
	sspan.SetAttr("nnz", strconv.Itoa(r.NNZ()+rt.NNZ()))
	sspan.End()
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

	ru, err := host.NewRangeUpdater(host.Config{
		K: k, Lambda: cfg.Lambda, Workers: cfg.Threads,
		Flat: cfg.Flat, Variant: v, WeightedLambda: cfg.WeightedLambda,
	})
	if err != nil {
		return fail(fmt.Errorf("worker %d: %w", rank, err))
	}
	defer ru.Close()

	// One half is: solve this rank's rows of the side, send the shard up,
	// receive the assembled side back. The Y half runs the same row updates
	// on Rᵀ, exactly as host.Train does.
	type side struct {
		half       byte
		name       string
		rows       *sparse.CSR // this rank's rows [lo, lo+rows.NumRows) of the side
		lo, total  int
		fixed, out *linalg.Dense
	}
	sides := [2]side{
		{half: halfX, name: "x", rows: r, lo: xlo, total: m, fixed: y, out: x},
		{half: halfY, name: "y", rows: rt, lo: ylo, total: n, fixed: x, out: y},
	}
	startIt := cfg.StartIteration + 1
	for it := startIt; it <= cfg.Iterations; it++ {
		for _, s := range sides {
			if it == startIt && cfg.StartY && s.half == halfX {
				continue
			}
			// Untraced runs keep the bare context, so every StartChild
			// below is a no-op and no span name is built.
			hctx, hspan := wctx, (*rtrace.Span)(nil)
			if wroot != nil {
				hctx, hspan = rtrace.StartChild(wctx, "iter"+strconv.Itoa(it)+"/"+s.name)
			}
			_, cspan := rtrace.StartChild(hctx, "compute")
			hi := s.lo + s.rows.NumRows
			shard := s.out.Data[s.lo*k : hi*k]
			err := ru.UpdateRange(s.rows, s.fixed, linalg.NewDenseFrom(s.rows.NumRows, k, shard), 0, s.rows.NumRows, it, s.half == halfX)
			cspan.End()
			if err != nil {
				return fail(fmt.Errorf("worker %d iteration %d %s: %w", rank, it, strings.ToUpper(s.name), err))
			}
			_, gspan := rtrace.StartChild(hctx, "gather")
			err = w.writeFactors(factorHeader{Iter: uint32(it), Half: s.half, Lo: uint32(s.lo), Rows: uint32(s.rows.NumRows), K: uint32(k)}, shard)
			gspan.End()
			if err != nil {
				return err
			}
			_, bspan := rtrace.StartChild(hctx, "broadcast")
			err = w.expectFactors(it, s.half, k, s.out.Data, 0, s.total, nil)
			bspan.End()
			hspan.End()
			if err != nil {
				return err
			}
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
