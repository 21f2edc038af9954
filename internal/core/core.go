// Package core is the library facade of the reproduction: the efficient
// and portable ALS solver of the paper as one public API.
//
// A Solver factorizes a rating matrix R ≈ X·Yᵀ with alternating least
// squares (Algorithm 1) on any supported platform: the real host machine
// (goroutine-parallel, wall-clock timed) or one of the three simulated
// OpenCL devices (Tesla K20c GPU, Xeon Phi 31SP MIC, Xeon E5-2670 CPU —
// cycle-modeled, see internal/device). The paper's code variants — thread
// batching plus the register / local-memory / vector optimizations — are
// selectable per run or chosen empirically (Sec. III-D).
//
// Typical use:
//
//	mx, _ := dataset.Load("ratings.txt", true)
//	model, info, _ := core.Train(mx.Matrix, core.Config{K: 10, Lambda: 0.1})
//	score := model.Predict(userID, itemID)
//	top := model.Recommend(mx.Matrix.R, userID, 10)
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/guard"
	"repro/internal/host"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// PlatformHost selects the real machine; the device names ("GPU", "MIC",
// "CPU") select the corresponding simulated platform.
const PlatformHost = "host"

// Config configures a training run. The zero value trains on the host with
// the paper's defaults (k=10, λ=0.1, 5 iterations, thread batching with
// the per-architecture recommended optimizations).
type Config struct {
	K          int     // latent factor dimensionality (default 10)
	Lambda     float32 // regularization coefficient (default 0.1)
	Iterations int     // ALS iterations (default 5)
	Seed       int64   // initial-guess seed

	// Platform is PlatformHost (default) or a simulated device kind:
	// "GPU", "MIC", "CPU".
	Platform string

	// Variant selects the code variant. When AutoVariant is set it is
	// ignored and the empirical selector picks the fastest variant with a
	// one-iteration probe of the extended space (the paper's eight plus the
	// fused/packed family; Sec. III-D).
	Variant     variant.Options
	AutoVariant bool
	// UseRecommended applies the paper's per-architecture recommendation
	// (GPU: +local+registers, CPU/MIC: +local) when Variant is zero and
	// AutoVariant is off. Host runs use +vec+fus, the measured winner on
	// real hardware (see EXPERIMENTS.md "Frozen captures").
	UseRecommended bool

	// Baseline runs the SAC'15 flat kernel instead (for comparisons).
	Baseline bool

	// GroupSize and Groups control the simulated launch grid (default
	// 8192×32, the paper's configuration). Ignored on the host.
	GroupSize int
	Groups    int

	// Implicit switches to implicit-feedback ALS (Hu et al. 2008, host
	// platform only): stored ratings become confidences c = 1 + Alpha·r
	// over unit preferences, and every row solve runs against a shared
	// FᵀF Gram with confidence-weighted rank-1 corrections. Incompatible
	// with WeightedLambda (implicit regularization is plain λI).
	Implicit bool
	// Alpha is the implicit-mode confidence scale (default 40).
	Alpha float32
	// Solver selects the per-row linear solver: host.SolverCholesky
	// (default), host.SolverLDL, or host.SolverCG (matrix-free conjugate
	// gradient, capped at CGIters iterations per row, default 3).
	Solver  host.Solver
	CGIters int
	// BlockSize enables iALS++ block-coordinate updates: each row solve
	// sweeps ⌈k/b⌉ blocks of b factors instead of one k×k direct solve.
	// Implicit mode with the Cholesky solver only; 0 disables.
	BlockSize int

	// WeightedLambda switches to the ALS-WR convention λ|Ω|I.
	WeightedLambda bool
	// TrackLoss records Eq. 2 after every half-iteration (host only).
	TrackLoss bool
	// Tolerance enables loss-based early stopping on the host (Algorithm
	// 1's "until it converges"); 0 disables.
	Tolerance float64
	// Workers bounds host parallelism (0 = GOMAXPROCS).
	Workers int

	// CheckpointDir enables crash-safe checkpointing (host platform
	// only): after every CheckpointEvery-th iteration (and the final one)
	// the factors plus training state are written atomically into the
	// directory, and all but the newest CheckpointKeep checkpoints are
	// garbage-collected.
	CheckpointDir string
	// CheckpointEvery is the iteration stride between checkpoints
	// (default 1).
	CheckpointEvery int
	// CheckpointKeep bounds the directory to the newest N checkpoints
	// (default 3).
	CheckpointKeep int
	// Resume restarts from the newest valid checkpoint in CheckpointDir,
	// verifying that k, λ, seed, λ convention, variant and the full
	// training mode (implicit flag, α, solver, CG budget, block size)
	// match the checkpointed run; a resumed run produces factors
	// bit-identical to an uninterrupted one. With no checkpoint present training starts
	// fresh, so crash-rerun loops can pass Resume unconditionally.
	Resume bool
	// CheckpointFS overrides the filesystem checkpoints go through
	// (nil = the real disk); tests inject checkpoint.MemFS faults here.
	CheckpointFS checkpoint.FS
	// CheckpointPrecision selects the factor encoding checkpoints are
	// written with (format v2): F32 (default) is lossless, F16/I8 shrink
	// the file 2–4× for serving-oriented runs. Quantized checkpoints
	// cannot be Resumed (the factors are lossy, so a bit-identical
	// continuation is impossible); divergence rollback still uses them,
	// dequantized, since an escalated-λ replay is approximate anyway.
	CheckpointPrecision quant.Precision

	// Obs, when set, receives the run's live counters (host platform only):
	// half iterations, worker utilization, stage timings, loss points, and
	// checkpoint I/O. See internal/obs.
	Obs *obs.TrainRecorder
	// Tracer, when set and sampling the run, receives its timeline (host
	// platform only) as one trace: a root span "train" whose children are
	// "iter<N>/x" and "iter<N>/y" per half iteration (see
	// host.Config.Trace for their attributes), "objective" per loss
	// evaluation, and "checkpoint.load", "checkpoint.save" and
	// "checkpoint.gc"; a divergence rollback is a "rollback<n>" attribute of
	// the root. The trace is published when the run returns.
	Tracer *rtrace.Tracer

	// Interrupt, when non-nil, requests a graceful stop (host platform
	// only): at the first iteration boundary after the channel is closed
	// the run writes a final checkpoint (when CheckpointDir is set, even
	// if the stride would have skipped that iteration), stops, and
	// returns an error wrapping ErrInterrupted — so a later Resume run
	// continues bit-identically from where the interrupted one left off.
	Interrupt <-chan struct{}

	// Guard, when set, arms the numerical-resilience layer (host platform
	// only): corrupt ratings are sanitized before training (non-strict
	// runs mutate the caller's matrix in place), failed row solves climb
	// the recovery ladder instead of aborting, and a divergence detected
	// by the watchdog rolls the run back to the last good checkpoint in
	// CheckpointDir with escalated λ, up to Guard.MaxRollbacks times
	// before surfacing guard.ErrDiverged. Without CheckpointDir a
	// rollback restarts from scratch. Checkpoints always record the
	// configured λ, not an escalated one: escalation is transient
	// recovery state, and a later Resume must match this config.
	Guard *guard.Guard
}

func (c *Config) setDefaults() {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Platform == "" {
		c.Platform = PlatformHost
	}
	// The training-mode defaults are resolved here, before the host config
	// and the Run are built, so checkpoints record what the run trained with.
	if c.Alpha <= 0 {
		c.Alpha = host.DefaultAlpha
	}
	if c.CGIters <= 0 {
		c.CGIters = host.DefaultCGIters
	}
}

// RunInfo reports how a training run went.
type RunInfo struct {
	Platform string
	Variant  string
	// Seconds is wall-clock on the host, simulated device time otherwise.
	Seconds float64
	// Simulated is true when Seconds is modeled rather than measured.
	Simulated bool
	// StageSeconds is a simulated run's time in the paper's S1/S2/S3,
	// summed over compute units (13 on the K20c, 16 on the E5-2670, 57 on
	// the Phi): S1+S2+S3 is many times the makespan Seconds. Their shares
	// are Fig. 8's breakdown.
	StageSeconds [3]float64
	// History carries per-half-iteration loss when TrackLoss was set
	// (including history restored from a resumed checkpoint).
	History []host.IterStats
	// ResumedFrom is the completed iteration a resumed run restarted
	// after (0 = fresh run).
	ResumedFrom int
	// Rollbacks counts divergence rollbacks the guard performed during
	// this run (0 = the run never diverged).
	Rollbacks int
}

// Meta carries optional model provenance the serving layer relies on: a
// version label for hot-swap bookkeeping and the training-time
// regularization so fold-in requests can default to the matching λ
// convention without the caller re-supplying it.
type Meta struct {
	Version        string  // free-form label ("" = unversioned)
	Lambda         float32 // training λ (0 = unknown)
	WeightedLambda bool    // true when trained with the ALS-WR λ|Ω|I convention
}

// Model is a trained factorization. When it was trained on a compact
// (ID-remapped) dataset, UserIDs/ItemIDs carry the external IDs per dense
// row so predictions can be reported in the original ID space; they are nil
// for models trained on already-dense matrices.
type Model struct {
	K    int
	X, Y *linalg.Dense // user (m×k) and item (n×k) factors

	UserIDs []int64 // optional: external user ID per row of X
	ItemIDs []int64 // optional: external item ID per row of Y

	Meta Meta // optional provenance

	// QY is the quantized item-factor matrix when the model came from a
	// compressed (format v2) checkpoint: the serving layer installs it
	// directly instead of re-encoding Y. Nil for float32 models; alone,
	// with Y nil, when loaded at its own precision (checkpoint.LoadAt).
	QY *quant.Matrix
}

// ModelOf is the model a checkpoint holds: its factors (with the compact
// item factors of a quantized checkpoint), its ID tables and the provenance
// serving needs. It is the one conversion from a file's State to a Model:
// every program that reads trained factors loads them with checkpoint.Load
// (a server with checkpoint.LoadAt) and converts them here.
func ModelOf(st *checkpoint.State) *Model {
	return &Model{K: st.K, X: st.X, Y: st.Y, QY: st.QY,
		UserIDs: st.UserIDs, ItemIDs: st.ItemIDs,
		Meta: Meta{Version: st.Version, Lambda: st.Lambda, WeightedLambda: st.WeightedLambda}}
}

// Items is the number of item rows m holds: Y's, or QY's when m holds its
// item factors quantized alone.
func (m *Model) Items() int {
	if m.Y == nil {
		return m.QY.Rows
	}
	return m.Y.Rows
}

// Predict estimates the rating of item i by user u (Eq. 1: x_u·y_iᵀ).
func (m *Model) Predict(u, i int) float64 {
	return linalg.Dot(m.X.Row(u), m.Y.Row(i))
}

// Recommend returns the top-n unrated items for user u, scored by the
// factorization; rated holds the training matrix used to exclude already-
// rated items.
func (m *Model) Recommend(rated *sparse.CSR, u, n int) []int {
	return metrics.TopN(rated, m.X, m.Y, u, n)
}

// RMSE evaluates the model on the stored ratings of r.
func (m *Model) RMSE(r *sparse.CSR) float64 { return metrics.RMSE(r, m.X, m.Y) }

// MAE evaluates mean absolute error on the stored ratings of r.
func (m *Model) MAE(r *sparse.CSR) float64 { return metrics.MAE(r, m.X, m.Y) }

// CheckFoldIn validates a fold-in user's ratings against a catalog of the
// given size: equal lengths, item indices in range and named once, finite
// values. A server's fold-in applies it before its solve; the scatter-gather
// frontend, which holds no Y to fold into, calls it before fanning the
// ratings out.
func CheckFoldIn(items []int32, ratings []float32, catalog int) error {
	if len(items) != len(ratings) {
		return fmt.Errorf("core: %d items but %d ratings", len(items), len(ratings))
	}
	seen := make(map[int32]struct{}, len(items))
	for j, it := range items {
		if it < 0 || int(it) >= catalog {
			return fmt.Errorf("core: item %d out of range [0,%d)", it, catalog)
		}
		if _, dup := seen[it]; dup {
			// A repeated item would be accumulated twice into the Gram
			// matrix and the right-hand side, silently over-weighting it.
			return fmt.Errorf("core: duplicate item %d in fold-in ratings", it)
		}
		seen[it] = struct{}{}
		if r := float64(ratings[j]); math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("core: rating for item %d is %g", it, r)
		}
	}
	return nil
}

// SolveFoldIn solves a fold-in user's normal equations (G + λI)·x = b from
// the packed upper-triangular Gram term G = Σ y_i·y_iᵀ and right-hand side
// b = Σ r_i·y_i over the rated items — accumulated by linalg.GramRHSFused
// over a server's item rows, or summed from per-shard partial terms by the
// scatter-gather frontend — by packed Cholesky, falling back to LDLᵀ when
// the system is not numerically positive definite. Both inputs are
// consumed.
func SolveFoldIn(packed, rhs []float32, k int, lambda float32) ([]float32, error) {
	// A rejected Cholesky has clobbered its factor but never touched rhs:
	// the fallback needs a pristine copy of packed alone.
	pcopy := append([]float32(nil), packed...)
	linalg.AddDiagPacked(packed, k, lambda)
	if err := linalg.CholeskySolvePacked(packed, k, rhs); err == nil {
		return rhs, nil
	}
	linalg.AddDiagPacked(pcopy, k, lambda)
	if err := linalg.LDLSolvePacked(pcopy, k, rhs, make([]float64, k)); err != nil {
		return nil, fmt.Errorf("core: fold-in solve: %w", err)
	}
	return rhs, nil
}

// Train factorizes the rating matrix according to cfg.
func Train(mx *sparse.Matrix, cfg Config) (*Model, *RunInfo, error) {
	cfg.setDefaults()
	if mx == nil || mx.NNZ() == 0 {
		return nil, nil, fmt.Errorf("core: empty rating matrix")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("core: Resume requires CheckpointDir")
	}
	if cfg.CheckpointDir != "" && cfg.Platform != PlatformHost {
		return nil, nil, fmt.Errorf("core: checkpointing is supported on the host platform only (got %q)", cfg.Platform)
	}
	if cfg.Guard != nil && cfg.Platform != PlatformHost {
		return nil, nil, fmt.Errorf("core: the numerical guard is supported on the host platform only (got %q)", cfg.Platform)
	}
	// The simulated devices model the explicit fused/register kernels only;
	// implicit mode and the alternative solvers are host fast paths, which
	// the cost model has no clock for.
	if cfg.Platform != PlatformHost && (cfg.Implicit || cfg.Solver != host.SolverCholesky || cfg.BlockSize != 0) {
		return nil, nil, fmt.Errorf("core: implicit mode and solver selection are supported on the host platform only (got %q)", cfg.Platform)
	}

	if cfg.Platform == PlatformHost {
		return trainHost(mx, cfg)
	}
	dev, err := device.ByName(cfg.Platform)
	if err != nil {
		return nil, nil, err
	}
	return trainSim(mx, dev, cfg)
}

func trainHost(mx *sparse.Matrix, cfg Config) (*Model, *RunInfo, error) {
	v := cfg.Variant
	if cfg.AutoVariant {
		best, _, err := SelectVariant(mx, PlatformHost, cfg)
		if err != nil {
			return nil, nil, err
		}
		v = best
	}
	v, vname := HostVariant(v, cfg.UseRecommended && !cfg.AutoVariant, cfg.Baseline)
	g := cfg.Guard
	if g != nil && !g.Strict {
		// Quarantine corrupt ratings before they poison the Gram matrices
		// (a single NaN anywhere makes every later loss NaN). This mutates
		// the caller's matrix in place — both sparse views. Strict runs
		// skip it so the fault surfaces at the row that hits it.
		g.SanitizeMatrix(mx)
	}
	// The run's one timeline: everything below is a child of this span.
	ctx, root := cfg.Tracer.StartRequest(context.Background(), "train", rtrace.SpanContext{})
	defer root.End()
	root.SetAttr("variant", vname)
	root.SetAttr("mode", host.ModeLabel(cfg.Implicit))
	root.SetAttr("linalg_kernel", linalg.KernelName())
	hostCfg := host.Config{
		K: cfg.K, Lambda: cfg.Lambda, Iterations: cfg.Iterations, Seed: cfg.Seed,
		Workers: cfg.Workers, Flat: cfg.Baseline, Variant: v,
		WeightedLambda: cfg.WeightedLambda, TrackLoss: cfg.TrackLoss,
		Tolerance: cfg.Tolerance, Obs: cfg.Obs, Trace: ctx, Guard: g,
		Implicit: cfg.Implicit, Alpha: cfg.Alpha, Solver: cfg.Solver,
		CGIters: cfg.CGIters, BlockSize: cfg.BlockSize,
	}
	run := NewRun(ctx, &cfg, vname)
	restart := func(st *checkpoint.State) {
		hostCfg.StartIteration, hostCfg.ResumeX, hostCfg.ResumeY = 0, nil, nil
		if st != nil {
			hostCfg.StartIteration, hostCfg.ResumeX, hostCfg.ResumeY = st.Iteration, st.X, st.Y
		}
	}
	st, err := run.Resume()
	if err != nil {
		return nil, nil, err
	}
	restart(st)
	resumedFrom := hostCfg.StartIteration
	if cfg.CheckpointDir != "" || cfg.Interrupt != nil {
		hostCfg.OnIteration = run.Boundary
	}
	start := time.Now()
	// The divergence-rollback loop: host.Train either completes, fails
	// hard, or surfaces guard.DivergedError from the watchdog. On
	// divergence (non-strict guard, rollback budget left) the run restarts
	// from the last good checkpoint — which exists because the watchdog
	// vets factors before the checkpoint hook runs — with λ escalated so
	// the replay is better conditioned than the attempt that diverged.
	// Checkpoints keep recording the ORIGINAL λ (see Config.Guard).
	rollbacks := 0
	var res *host.Result
	for {
		res, err = host.Train(mx, hostCfg)
		if err == nil {
			break
		}
		var de *guard.DivergedError
		if g == nil || g.Strict || !errors.As(err, &de) {
			return nil, nil, err
		}
		if rollbacks >= g.MaxRollbacks {
			return nil, nil, fmt.Errorf("core: %d rollbacks exhausted: %w", rollbacks, err)
		}
		rollbacks++
		g.NoteRollback()
		root.SetAttr("rollback"+strconv.Itoa(rollbacks), fmt.Sprintf("iter=%d loss=%g", de.Iteration, de.Loss))
		hostCfg.Lambda *= guard.LambdaEscalation
		if st, err = run.Rollback(); err != nil {
			return nil, nil, err
		}
		restart(st)
	}
	info := &RunInfo{
		Platform: PlatformHost, Variant: vname,
		Seconds: time.Since(start).Seconds(),
		History: concatHistory(run.history, res.History), ResumedFrom: resumedFrom,
		Rollbacks: rollbacks,
	}
	mod := &Model{K: cfg.K, X: res.X, Y: res.Y,
		Meta: Meta{Lambda: cfg.Lambda, WeightedLambda: cfg.WeightedLambda}}
	return mod, info, nil
}

func trainSim(mx *sparse.Matrix, dev *device.Device, cfg Config) (*Model, *RunInfo, error) {
	v := cfg.Variant
	switch {
	case cfg.Baseline:
	case cfg.AutoVariant:
		best, _, err := SelectVariant(mx, cfg.Platform, cfg)
		if err != nil {
			return nil, nil, err
		}
		v = best
	case cfg.UseRecommended && v == (variant.Options{}):
		if dev.Kind == device.GPU {
			v = variant.Options{Local: true, Register: true}
		} else {
			v = variant.Options{Local: true}
		}
	}
	spec := kernels.FromVariant(v)
	if cfg.Baseline {
		spec = kernels.Baseline()
	}
	// The clock is the simulator's; the factors are the host's, computed
	// with the same variant, since staging and the S3 form move cycles and
	// never a bit.
	est, err := kernels.Estimate(mx, kernels.Config{
		Device: dev, Spec: spec, K: cfg.K, Iterations: cfg.Iterations,
		Groups: cfg.Groups, GroupSize: cfg.GroupSize,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := host.Train(mx, host.Config{
		K: cfg.K, Lambda: cfg.Lambda, Iterations: cfg.Iterations, Seed: cfg.Seed,
		Workers: cfg.Workers, Flat: cfg.Baseline, Variant: v,
	})
	if err != nil {
		return nil, nil, err
	}
	info := &RunInfo{
		Platform: cfg.Platform, Variant: host.VariantLabel(cfg.Baseline, v),
		Seconds: est.Seconds(), Simulated: true,
	}
	for i := 0; i < 3; i++ {
		info.StageSeconds[i] = dev.Seconds(est.Report.StageCycles[i])
	}
	mod := &Model{K: cfg.K, X: res.X, Y: res.Y, Meta: Meta{Lambda: cfg.Lambda}}
	return mod, info, nil
}

// SelectVariant empirically picks the fastest of the 8 code variants for
// the given platform by probing each with a single iteration (the paper's
// Sec. III-D selection). It returns the winner and all measurements sorted
// fastest-first.
func SelectVariant(mx *sparse.Matrix, platform string, cfg Config) (variant.Options, []variant.Measurement, error) {
	cfg.setDefaults()
	var dev *device.Device // nil probes the host
	if platform != PlatformHost {
		var err error
		if dev, err = device.ByName(platform); err != nil {
			return variant.Options{}, nil, err
		}
	}
	var firstErr error
	measure := func(v variant.Options) (sec float64) {
		var err error
		if dev == nil {
			start := time.Now()
			_, err = host.Train(mx, host.Config{
				K: cfg.K, Lambda: cfg.Lambda, Iterations: 1, Seed: cfg.Seed,
				Workers: cfg.Workers, Variant: v,
			})
			sec = time.Since(start).Seconds()
		} else {
			// A simulated probe reads the clock only: the cost pass.
			var res *kernels.Result
			res, err = kernels.Estimate(mx, kernels.Config{
				Device: dev, Spec: kernels.FromVariant(v), K: cfg.K, Iterations: 1,
				Groups: cfg.Groups, GroupSize: cfg.GroupSize,
			})
			if err == nil {
				sec = res.Seconds()
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return sec
	}
	best, ms := variant.SelectBest(variant.Extended(), measure)
	if firstErr != nil {
		return variant.Options{}, nil, firstErr
	}
	return best, ms, nil
}
