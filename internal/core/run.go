package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/variant"
)

// ErrInterrupted reports a training run stopped at an iteration boundary by
// Config.Interrupt. The run's checkpoint (when checkpointing is on) covers
// everything computed so far: rerun with Resume to finish it.
var ErrInterrupted = errors.New("core: training interrupted")

// HostVariant resolves the code variant a host run trains with — the
// recommendation (+vec+fus, the measured host winner; see EXPERIMENTS.md
// "Frozen captures" — it subsumes the paper's register strip) when asked for and
// none was named — and the label checkpoints and run reports carry for it.
func HostVariant(v variant.Options, useRecommended, baseline bool) (variant.Options, string) {
	if useRecommended && !baseline && v == (variant.Options{}) {
		v = variant.Options{Vector: true, Fused: true}
	}
	return v, host.VariantLabel(baseline, v)
}

// Run is the part of a host training run that does not depend on who solves
// the rows — Train's in-process loop or the distributed coordinator in
// internal/shard: resume from the newest checkpoint unless it belongs to a
// different configuration, write one every CheckpointEvery-th iteration and
// after the last, keep the newest CheckpointKeep, and at the first iteration
// boundary after Interrupt closes write one more and stop with
// ErrInterrupted. Every checkpoint read and write is timed, counted on
// Config.Obs and traced under ctx's span here and nowhere else.
type Run struct {
	ctx     context.Context
	cfg     *Config
	variant string
	fsys    checkpoint.FS
	every   int
	keep    int
	// history is what the checkpoint the run restarted from had recorded;
	// every later checkpoint carries it in front of the live history.
	history []host.IterStats
}

// NewRun builds the scaffold for one run of cfg (K and Iterations already
// defaulted) labelled variantID. ctx carries the run's root span when the
// run is traced; context.Background() otherwise.
func NewRun(ctx context.Context, cfg *Config, variantID string) *Run {
	r := &Run{ctx: ctx, cfg: cfg, variant: variantID,
		fsys: cfg.CheckpointFS, every: cfg.CheckpointEvery, keep: cfg.CheckpointKeep}
	if r.fsys == nil {
		r.fsys = checkpoint.OS
	}
	if r.every <= 0 {
		r.every = 1
	}
	if r.keep <= 0 {
		r.keep = 3
	}
	return r
}

// Resume returns the state to continue from, or nil to start fresh: Resume
// off, or no checkpoint yet — so crash-rerun loops can pass Resume
// unconditionally. A checkpoint that cannot be read, or that a run under
// this configuration would not have written, is an error.
func (r *Run) Resume() (*checkpoint.State, error) {
	if !r.cfg.Resume {
		return nil, nil
	}
	return r.restart("resuming", true)
}

// Rollback returns the state a diverged run restarts from, or nil when it
// diverged before its first checkpoint. The factors are dequantized float32
// whatever the file's precision, so a rollback works from quantized
// checkpoints too: the replay runs with escalated λ and is approximate by
// construction, which is why Resume's configuration check does not apply.
func (r *Run) Rollback() (*checkpoint.State, error) {
	return r.restart("rolling back", false)
}

func (r *Run) restart(doing string, check bool) (*checkpoint.State, error) {
	r.history = nil
	if r.cfg.CheckpointDir == "" {
		return nil, nil
	}
	st, err := r.load()
	switch {
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("core: %s from %s: %w", doing, r.cfg.CheckpointDir, err)
	}
	if check {
		if err := resumeMismatch(st, r.cfg, r.variant); err != nil {
			return nil, err
		}
	}
	r.history = st.History
	return st, nil
}

// load reads the newest checkpoint of the run's directory.
func (r *Run) load() (*checkpoint.State, error) {
	_, span := rtrace.StartChild(r.ctx, "checkpoint.load")
	start := time.Now()
	st, _, err := checkpoint.LoadLatest(r.fsys, r.cfg.CheckpointDir)
	if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		var iter int
		var bytes int64
		if err == nil {
			iter, bytes = st.Iteration, st.EncodedSize()
		}
		r.cfg.Obs.RecordCheckpoint("load", time.Since(start), bytes, err)
		endIO(span, iter, bytes, err)
	}
	return st, err
}

// endIO closes a checkpoint I/O span. (A load that found no checkpoint is
// never ended, so it is not published.)
func endIO(span *rtrace.Span, iter int, bytes int64, err error) {
	if span == nil {
		return
	}
	span.SetAttr("iter", strconv.Itoa(iter))
	span.SetAttr("bytes", strconv.FormatInt(bytes, 10))
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
}

// Boundary runs after every completed iteration, with the workers quiescent
// and the factors vetted (it has host.Config.OnIteration's signature): it
// writes the checkpoint the stride asks for, and once Interrupt has closed
// makes sure this iteration has one and stops the run.
func (r *Run) Boundary(it int, x, y *linalg.Dense, hist []host.IterStats) error {
	cfg := r.cfg
	due := cfg.CheckpointDir != "" && (it%r.every == 0 || it == cfg.Iterations)
	if due {
		if err := r.save(it, x, y, hist); err != nil {
			return err
		}
	}
	select {
	case <-cfg.Interrupt:
	default:
		return nil
	}
	if cfg.CheckpointDir != "" && !due {
		// The stride skipped this iteration; the interrupted run must still
		// be resumable from where it stopped.
		if err := r.save(it, x, y, hist); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w at iteration %d/%d", ErrInterrupted, it, cfg.Iterations)
}

// State is the float32 checkpoint a run of cfg labelled variantID records
// for factors x, y after iteration it, without history. Run's checkpoints
// are this State at their precision and with the loss history; alstrain
// -out writes it with the model block. Checkpoints record the configured λ,
// never an escalated one (see Config.Guard).
func (cfg *Config) State(variantID string, it int, x, y *linalg.Dense) *checkpoint.State {
	return &checkpoint.State{
		Iteration: it, K: cfg.K, Lambda: cfg.Lambda,
		WeightedLambda: cfg.WeightedLambda, Seed: cfg.Seed,
		Variant: variantID, X: x, Y: y,
		Implicit: cfg.Implicit, Alpha: cfg.Alpha, Solver: cfg.Solver,
		CGIters: cfg.CGIters, BlockSize: cfg.BlockSize,
	}
}

// save writes iteration it's checkpoint and collects the ones past
// CheckpointKeep.
func (r *Run) save(it int, x, y *linalg.Dense, hist []host.IterStats) error {
	cfg := r.cfg
	st := cfg.State(r.variant, it, x, y)
	st.Precision, st.History = cfg.CheckpointPrecision, concatHistory(r.history, hist)
	_, span := rtrace.StartChild(r.ctx, "checkpoint.save")
	start := time.Now()
	_, err := checkpoint.Save(r.fsys, cfg.CheckpointDir, st)
	cfg.Obs.RecordCheckpoint("save", time.Since(start), st.EncodedSize(), err)
	endIO(span, it, st.EncodedSize(), err)
	if err != nil {
		return err
	}
	_, span = rtrace.StartChild(r.ctx, "checkpoint.gc")
	err = checkpoint.GC(r.fsys, cfg.CheckpointDir, r.keep)
	span.End()
	if err != nil {
		return fmt.Errorf("checkpoint GC: %w", err)
	}
	return nil
}

// resumeMismatch rejects resuming under a configuration that would not
// reproduce the checkpointed run: silently continuing with a different k,
// λ, seed, λ convention, code variant or training mode would converge to a
// different model while claiming to be the same job. α and the CG budget
// are compared where they enter the arithmetic — implicit runs and the CG
// solver — so an explicit direct-solver checkpoint resumes the same whether
// a single process or the distributed coordinator (which records neither)
// wrote it. A stored 0 is a file from before Train resolved the defaults:
// that run trained with them.
func resumeMismatch(st *checkpoint.State, cfg *Config, variantID string) error {
	alpha, cgIters := st.Alpha, st.CGIters
	if alpha == 0 {
		alpha = host.DefaultAlpha
	}
	if cgIters == 0 {
		cgIters = host.DefaultCGIters
	}
	switch {
	case st.K != cfg.K:
		return fmt.Errorf("core: checkpoint has k=%d, run wants k=%d", st.K, cfg.K)
	case st.Lambda != cfg.Lambda:
		return fmt.Errorf("core: checkpoint has lambda=%g, run wants %g", st.Lambda, cfg.Lambda)
	case st.Seed != cfg.Seed:
		return fmt.Errorf("core: checkpoint has seed=%d, run wants %d", st.Seed, cfg.Seed)
	case st.WeightedLambda != cfg.WeightedLambda:
		return fmt.Errorf("core: checkpoint lambda convention (weighted=%v) does not match run (weighted=%v)",
			st.WeightedLambda, cfg.WeightedLambda)
	case st.Variant != variantID:
		return fmt.Errorf("core: checkpoint was trained with variant %q, run wants %q", st.Variant, variantID)
	case st.Implicit != cfg.Implicit:
		// Resuming across the explicit/implicit boundary would continue a
		// run under a different objective entirely.
		return fmt.Errorf("core: checkpoint is from an %s-feedback run, run wants %s feedback",
			host.ModeLabel(st.Implicit), host.ModeLabel(cfg.Implicit))
	case cfg.Implicit && alpha != cfg.Alpha:
		return fmt.Errorf("core: checkpoint has alpha=%g, run wants %g", st.Alpha, cfg.Alpha)
	case st.Solver != cfg.Solver:
		return fmt.Errorf("core: checkpoint was trained with solver %q, run wants %q", st.Solver, cfg.Solver)
	case cfg.Solver == host.SolverCG && cgIters != cfg.CGIters:
		return fmt.Errorf("core: checkpoint has cg-iters=%d, run wants %d", st.CGIters, cfg.CGIters)
	case st.BlockSize != cfg.BlockSize:
		return fmt.Errorf("core: checkpoint has block-size=%d, run wants %d", st.BlockSize, cfg.BlockSize)
	case st.Precision != quant.F32:
		// Quantization is lossy: resuming from dequantized factors would
		// produce a run that claims bit-identity with the original but
		// is not. (Divergence rollback deliberately skips this check.)
		return fmt.Errorf("core: checkpoint factors are quantized (%v); resume requires a float32 checkpoint", st.Precision)
	}
	return nil
}

// concatHistory joins restored and freshly-recorded loss history without
// aliasing either slice.
func concatHistory(pre, cur []host.IterStats) []host.IterStats {
	if len(pre) == 0 {
		return cur
	}
	out := make([]host.IterStats, 0, len(pre)+len(cur))
	out = append(out, pre...)
	return append(out, cur...)
}
