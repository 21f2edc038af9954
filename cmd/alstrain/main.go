// alstrain trains an ALS factorization on a rating file (the paper's
// `<userID, itemID, rating>` format) or on a synthetic Table I preset, on
// the host or on one of the simulated devices, and optionally saves the
// model for alsrecommend.
//
// With -workers N the run becomes data-parallel across N forked worker
// processes: each is sent its static partition of the user (then item) rows
// of the ratings this process loaded, solves it, and the coordinator relays
// the factor shards between half-iterations over loopback TCP. The
// resulting model is bit-identical to a single-process run with the same
// flags. The -dist-rank/-dist-coord flags are the internal re-exec hook for
// those workers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/shard"
	"repro/internal/shard/chaosnet"
	"repro/internal/sparse"
	"repro/internal/variant"
)

func main() {
	input := flag.String("input", "", "rating file in <user item rating> format")
	oneBased := flag.Bool("one-based", true, "IDs in the rating file start at 1")
	compact := flag.Bool("compact", false, "remap sparse external IDs to dense indices (recommended for real datasets); the ID tables are stored in the model")
	preset := flag.String("preset", "", "synthetic preset instead of a file: MVLE, NTFX, YMR1, YMR4")
	scale := flag.Float64("scale", 0.01, "bench scale for the synthetic preset")
	k := flag.Int("k", 10, "latent factor dimensionality")
	lambda := flag.Float64("lambda", 0.1, "regularization coefficient")
	iters := flag.Int("iters", 5, "ALS iterations")
	seed := flag.Int64("seed", 2017, "random seed")
	platform := flag.String("platform", "host", "host, CPU, GPU or MIC (non-host runs on the simulated device)")
	variantID := flag.String("variant", "", "code variant (e.g. tb+loc+reg); empty = per-architecture recommendation")
	auto := flag.Bool("auto-variant", false, "empirically select the fastest of the 8 variants first")
	testFrac := flag.Float64("test-frac", 0.1, "held-out fraction for RMSE reporting (0 disables)")
	out := flag.String("out", "", "write the trained model to this file as a float32 checkpoint (what alsserve -model, alsrecommend and alseval read)")
	version := flag.String("version", "", "version label stored in the -out file (shown by alsserve)")
	weighted := flag.Bool("weighted-lambda", false, "use the ALS-WR convention lambda*|Omega|*I")
	implicit := flag.Bool("implicit", false, "train implicit-feedback ALS (Hu et al.): ratings become confidences 1+alpha*r over unit preferences (host platform only)")
	alpha := flag.Float64("alpha", 40, "confidence scale for -implicit")
	solverID := flag.String("solver", "chol", "per-row linear solver: chol (direct Cholesky), ldl, or cg (matrix-free conjugate gradient)")
	cgIters := flag.Int("cg-iters", 3, "CG iterations per row solve (with -solver cg)")
	blockSize := flag.Int("block-size", 0, "iALS++ block-coordinate update width (with -implicit and -solver chol; 0 = full-width direct solve)")
	ckptDir := flag.String("checkpoint-dir", "", "write crash-safe training checkpoints into this directory")
	ckptEvery := flag.Int("checkpoint-every", 1, "iterations between checkpoints")
	ckptKeep := flag.Int("checkpoint-keep", 3, "newest checkpoints to retain (older ones are garbage-collected)")
	ckptPrec := flag.String("checkpoint-precision", "f32", "factor precision for written checkpoints: f32, f16 or i8; quantized checkpoints are 2-4x smaller and hot-swap straight into alsserve -precision, but cannot seed -resume")
	resume := flag.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir (fresh start when none exists)")
	strict := flag.Bool("strict-numerics", false, "fail fast on the first numerical fault instead of climbing the recovery ladder (host platform)")
	chaosSpec := flag.String("chaos", "", "inject deterministic numerical faults, e.g. nan=1,inf=1,gram=2,fail=1,blowup=2,seed=7 (host platform; tests the resilience layer)")
	debugAddr := flag.String("debug-addr", "", "serve live /metrics, /runinfo and /debug/pprof on this address during training (e.g. :9090)")
	debugLinger := flag.Duration("debug-linger", 0, "keep the -debug-addr server up this long after training finishes (for scraping short runs)")
	workers := flag.Int("workers", 0, "fork this many worker processes for data-parallel distributed training (host platform only; the coordinator loads the ratings once and sends each worker its rows; the model stays bit-identical to a single-process run; 0 = in-process)")
	threads := flag.Int("threads", 0, "solver goroutines per distributed worker process (0 = GOMAXPROCS; only with -workers)")
	distRank := flag.Int("dist-rank", -1, "internal: run as distributed worker with this rank (set by the -workers coordinator)")
	distCoord := flag.String("dist-coord", "", "internal: coordinator address for -dist-rank")
	maxRespawns := flag.Int("max-respawns", 3, "with -workers: total failed-worker respawns before the run elastically downscales to the survivors (negative disables respawning)")
	heartbeatInterval := flag.Duration("heartbeat-interval", time.Second, "with -workers: worker liveness heartbeat period (hung workers are detected after ~5x this; <0 disables)")
	roundTimeout := flag.Duration("round-timeout", 0, "with -workers: deadline for one gather round before the lagging workers are declared failed (0 = the 10-minute exchange default)")
	netChaos := flag.String("net-chaos", "", "with -workers: inject deterministic network faults into the exchange, e.g. sever=1:in:3,corrupt=0:out:2,delay=1:in:4:2s,seed=7 (tests the supervision layer)")
	traceSample := flag.Float64("trace-sample", 0, "head-sample the run into a span trace with this probability: a root train span over per-half-iteration, objective and checkpoint spans, and with -workers the coordinator's gather/broadcast spans plus each worker's compute/gather/broadcast spans shipped back over the exchange protocol; browse at -debug-addr's /debug/traces or export with -span-trace-out (an output flag alone samples at 1)")
	spanTraceOut := flag.String("span-trace-out", "", "write the run's span trace as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file after training")
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "alstrain:", err)
		os.Exit(1)
	}
	if *distRank >= 0 {
		// Worker mode: everything (hyperparameters, variant, this rank's rows
		// of the ratings) arrives in the coordinator's frames, not from our
		// flags or from a file.
		if *distCoord == "" {
			fail(fmt.Errorf("-dist-rank needs -dist-coord"))
		}
		if err := shard.RunWorker(*distCoord, *distRank); err != nil {
			fail(err)
		}
		return
	}
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "alstrain:", err)
		}
	}()

	// The numerical guard rides along on every host run: with clean data it
	// never fires (and the hot path stays allocation-free), with poisoned
	// data it keeps the run alive — or, under -strict-numerics, makes it die
	// with a fault that names the iteration and row. Non-host platforms run
	// guardless as before; asking for -chaos or -strict-numerics there
	// surfaces core's typed unsupported error instead of silently ignoring
	// the flag.
	var gd *guard.Guard
	if *platform == "host" || *chaosSpec != "" || *strict {
		gd = guard.New(guard.Policy{Strict: *strict})
		if *chaosSpec != "" {
			ch, err := guard.ParseChaos(*chaosSpec)
			if err != nil {
				fail(err)
			}
			gd.Chaos = ch
		}
	}

	// The recorder (live counters) and the tracer (the run's timeline) are
	// nil unless some output was asked for, so the default training path
	// stays uninstrumented. An output file without a rate samples the run.
	var rec *obs.TrainRecorder
	if *debugAddr != "" {
		rec = obs.NewTrainRecorder()
	}
	if *traceSample <= 0 && *spanTraceOut != "" {
		*traceSample = 1
	}
	var tracer *rtrace.Tracer
	if *traceSample > 0 {
		tracer = rtrace.New(rtrace.Config{Sample: *traceSample, Process: "alstrain"})
	}
	if *netChaos != "" && *workers <= 0 {
		fail(fmt.Errorf("-net-chaos injects faults into the distributed exchange and needs -workers"))
	}
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		rec.Register(reg)
		if gd != nil {
			gd.Register(reg)
		}
		tracer.Register(reg)
		dbg, err := rtrace.ServeDebug(*debugAddr, tracer, obs.DebugConfig{
			Registry: reg,
			RunInfo:  func() any { return rec.RunInfo() },
		})
		if err != nil {
			fail(err)
		}
		defer dbg.Close()
	}

	if *input == "" && *preset == "" {
		fail(fmt.Errorf("need -input or -preset"))
	}
	// This process is the only one that loads the data: with -workers the
	// ranks are sent their rows of it. The load comes before the train span
	// and is its own root in the run's trace.
	spec := shard.DataSpec{
		Preset: *preset, Scale: *scale,
		Input: *input, OneBased: *oneBased, Compact: *compact,
		TestFrac: *testFrac, Seed: *seed,
	}
	_, load := tracer.StartRequest(context.Background(), "load", rtrace.SpanContext{})
	var allocated uint64
	if load != nil {
		allocated = rtrace.HeapAllocated()
	}
	var ds *dataset.Dataset
	var userIDs, itemIDs []int64
	var err error
	if *workers > 0 && *input != "" && !*compact {
		ds, err = loadRows(*input, *oneBased)
	} else {
		ds, userIDs, itemIDs, err = spec.Dataset()
	}
	if err != nil {
		fail(err)
	}
	mx := ds.Matrix
	load.SetAllocMB(allocated)
	load.SetAttr("nnz", strconv.Itoa(mx.NNZ()))
	if st := ds.Ingest; st != nil {
		load.SetAttr("bytes", strconv.FormatInt(st.Bytes, 10))
		load.SetAttr("lines", strconv.Itoa(st.Lines))
		load.SetAttr("parse_ms", strconv.FormatFloat(st.ParseSeconds*1e3, 'f', 1, 64))
		load.SetAttr("build_ms", strconv.FormatFloat(st.BuildSeconds*1e3, 'f', 1, 64))
	}
	load.End()
	fmt.Printf("dataset: %s  m=%d n=%d nnz=%d\n", ds.Name, mx.Rows(), mx.Cols(), mx.NNZ())
	rec.SetMeta("alstrain", ds.Name, *k, *lambda, *iters)

	train := mx
	test := mx
	if *testFrac > 0 {
		tr, te, err := dataset.Split(mx, *testFrac, *seed+1)
		if err != nil {
			fail(err)
		}
		train, test = tr, te
	}
	if gd != nil && gd.Chaos.Active() {
		// Corrupt only the training matrix so the held-out RMSE measures
		// recovery against clean ground truth.
		gd.Chaos.Bind(train.Rows())
		ct, err := gd.Chaos.CorruptMatrix(train)
		if err != nil {
			fail(err)
		}
		train = ct
		fmt.Printf("chaos: %s\n", gd.Chaos)
	}

	ckPrec, err := quant.Parse(*ckptPrec)
	if err != nil {
		fail(err)
	}
	if ckPrec != quant.F32 && *resume {
		// A quantized checkpoint is lossy; resuming from it could not be
		// bit-identical, so core rejects it at load time — fail fast here.
		fail(fmt.Errorf("-checkpoint-precision %s does not compose with -resume (quantized checkpoints are lossy)", ckPrec))
	}

	solver, err := host.ParseSolver(*solverID)
	if err != nil {
		fail(err)
	}
	cfg := core.Config{
		K: *k, Lambda: float32(*lambda), Iterations: *iters, Seed: *seed,
		Platform: *platform, AutoVariant: *auto, UseRecommended: *variantID == "",
		WeightedLambda: *weighted,
		Implicit:       *implicit, Alpha: float32(*alpha), Solver: solver,
		CGIters: *cgIters, BlockSize: *blockSize,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
		CheckpointKeep: *ckptKeep, CheckpointPrecision: ckPrec,
		Resume: *resume, Obs: rec, Tracer: tracer,
		Guard: gd,
	}
	if *variantID != "" {
		v, err := variant.ParseID(*variantID)
		if err != nil {
			fail(err)
		}
		cfg.Variant = v
	}

	// Graceful shutdown: SIGINT/SIGTERM closes the Interrupt channel; the
	// run stops at the next iteration boundary after writing a final
	// checkpoint, so nothing computed so far is lost.
	ictx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	cfg.Interrupt = ictx.Done()
	failOrResumable := func(err error) {
		if !errors.Is(err, core.ErrInterrupted) {
			fail(err)
		}
		fmt.Fprintln(os.Stderr, "alstrain:", err)
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "alstrain: interrupted run is resumable: rerun with the same flags plus -resume (checkpoints in %s)\n", *ckptDir)
		} else {
			fmt.Fprintln(os.Stderr, "alstrain: run stopped at an iteration boundary; add -checkpoint-dir to make interrupted runs resumable")
		}
		os.Exit(3)
	}

	var model *core.Model
	var variantLabel string
	if *workers > 0 {
		// Distributed data-parallel training: fork -workers copies of this
		// binary as rank workers; each is sent its rows of train and they
		// exchange factor shards through this coordinator.
		switch {
		case *platform != "host":
			fail(fmt.Errorf("-workers trains on the host; -platform %s is a simulated device", *platform))
		case *chaosSpec != "" || *strict:
			fail(fmt.Errorf("-workers does not compose with -chaos/-strict-numerics (the guard is per-process)"))
		case *auto:
			fail(fmt.Errorf("-workers needs a fixed variant; -auto-variant would let workers disagree"))
		case *implicit || solver != host.SolverCholesky || *blockSize != 0:
			fail(fmt.Errorf("-workers does not compose with -implicit/-solver/-block-size: the distributed path trains the explicit objective with the direct solver"))
		}
		exe, err := os.Executable()
		if err != nil {
			fail(err)
		}
		dcfg := shard.TrainerConfig{
			Workers: *workers,
			K:       *k, Lambda: float32(*lambda), Iterations: *iters, Seed: *seed,
			WeightedLambda: *weighted, UseRecommended: *variantID == "", Variant: cfg.Variant,
			Threads:       *threads,
			CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
			CheckpointKeep: *ckptKeep, CheckpointPrecision: ckPrec,
			Resume:            *resume,
			Registry:          reg,
			Obs:               rec,
			Tracer:            tracer,
			HeartbeatInterval: *heartbeatInterval,
			RoundTimeout:      *roundTimeout,
			Interrupt:         ictx.Done(),
			Logf:              log.Printf,
			Spawn: func(rank int, addr string) (func(), error) {
				cmd := exec.Command(exe, "-dist-rank", strconv.Itoa(rank), "-dist-coord", addr)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Start(); err != nil {
					return nil, err
				}
				// The PID line lets operators (and the fault-injection smoke
				// test) target a specific worker.
				fmt.Printf("worker %d pid %d\n", rank, cmd.Process.Pid)
				return func() { cmd.Process.Kill(); cmd.Wait() }, nil
			},
		}
		if *maxRespawns <= 0 {
			dcfg.MaxRespawns = -1 // 0 and negative both mean "never respawn"
		} else {
			dcfg.MaxRespawns = *maxRespawns
		}
		if *netChaos != "" {
			plan, err := chaosnet.ParsePlan(*netChaos)
			if err != nil {
				fail(err)
			}
			dcfg.NetChaos = plan
		}
		// Before the run allocates for good: without it no collection runs
		// before the end, and the coordinator's peak is 34 MB, not 28-29.
		dataset.ReleaseLoad()
		m, dinfo, err := shard.Train(train, dcfg)
		if err != nil {
			failOrResumable(err)
		}
		model, variantLabel = m, dinfo.Variant
		if dinfo.ResumedFrom > 0 {
			fmt.Printf("resumed from checkpoint at iteration %d\n", dinfo.ResumedFrom)
		}
		if dinfo.Failures > 0 {
			fmt.Printf("supervision: %d worker failures, %d respawns, %d downscales (finished on %d workers)\n",
				dinfo.Failures, dinfo.Respawns, dinfo.Downscales, dinfo.FinalWorkers)
		}
		fmt.Printf("trained on host with %s: %.4fs (wall-clock, %d worker processes)\n",
			dinfo.Variant, dinfo.Seconds, dinfo.Workers)
		fmt.Printf("coordinator exchange traffic: %d bytes\n", dinfo.BroadcastBytes)
		fmt.Printf("ratings shipped to workers: %d bytes\n", dinfo.DataBytes)
	} else {
		m, info, err := core.Train(train, cfg)
		if err != nil {
			failOrResumable(err)
		}
		model, variantLabel = m, info.Variant
		if info.ResumedFrom > 0 {
			fmt.Printf("resumed from checkpoint at iteration %d\n", info.ResumedFrom)
		}
		kindLabel := "wall-clock"
		if info.Simulated {
			kindLabel = "simulated"
		}
		fmt.Printf("trained on %s with %s: %.4fs (%s)\n", info.Platform, info.Variant, info.Seconds, kindLabel)
		if gd != nil {
			if s := gd.Summary(); s != "" {
				fmt.Printf("guard: %s\n", s)
			}
		}
		if info.Simulated {
			fmt.Printf("stage time summed over compute units: S1=%.4fs S2=%.4fs S3=%.4fs\n",
				info.StageSeconds[0], info.StageSeconds[1], info.StageSeconds[2])
		}
	}
	if *implicit {
		// RMSE against raw ratings is meaningless for an implicit model (it
		// predicts preference ≈ 1 on observed pairs); report ranking quality.
		if *testFrac > 0 {
			prec10, recall10 := metrics.PrecisionRecallAtN(train.R, test.R, model.X, model.Y, 10, 0)
			fmt.Printf("test precision@10: %.4f  recall@10: %.4f (%.0f%% held out)\n",
				prec10, recall10, *testFrac*100)
		}
	} else {
		fmt.Printf("train RMSE: %.4f\n", model.RMSE(train.R))
		if *testFrac > 0 {
			fmt.Printf("test  RMSE: %.4f (%.0f%% held out)\n", model.RMSE(test.R), *testFrac*100)
		}
	}

	if *out != "" {
		// The model file is a float32 checkpoint of the last iteration, the
		// same State whether one process or -workers trained it, with the
		// version label and ID tables in its model block. Atomic (temp +
		// fsync + rename) so a crash mid-save cannot leave a torn model file
		// for alsserve to pick up.
		st := cfg.State(variantLabel, *iters, model.X, model.Y)
		st.Version, st.UserIDs, st.ItemIDs = *version, userIDs, itemIDs
		if err := checkpoint.WriteFileAtomic(checkpoint.OS, *out, func(w io.Writer) error {
			return checkpoint.Encode(w, st)
		}); err != nil {
			fail(err)
		}
		fmt.Printf("model written to %s\n", *out)
	}

	if tracer != nil {
		recorded, dropped := tracer.SpanCount()
		fmt.Printf("trace: %d spans recorded (%d dropped)\n", recorded, dropped)
	}
	if *spanTraceOut != "" {
		if err := checkpoint.WriteFileAtomic(checkpoint.OS, *spanTraceOut, tracer.WriteChromeTrace); err != nil {
			fail(err)
		}
		fmt.Printf("span trace written to %s\n", *spanTraceOut)
	}
	if *debugAddr != "" && *debugLinger > 0 {
		fmt.Printf("debug server lingering for %s\n", *debugLinger)
		time.Sleep(*debugLinger)
	}
}

// loadRows loads a rating file as R's rows alone, for a -workers
// coordinator: it solves neither half, and it streams each rank's rows of
// Rᵀ out of R's columns (shard.Train), so it builds no CSC.
func loadRows(path string, oneBased bool) (*dataset.Dataset, error) {
	coo, st, err := dataset.ReadRatings(path, oneBased)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	r, err := sparse.NewCSR(coo)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	st.BuildSeconds = time.Since(start).Seconds()
	return &dataset.Dataset{Name: path, Matrix: &sparse.Matrix{R: r}, Ingest: st}, nil
}
