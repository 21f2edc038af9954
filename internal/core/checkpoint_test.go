package core

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/sparse"
	"repro/internal/variant"
)

func ckptMatrix(t testing.TB) *sparse.Matrix {
	t.Helper()
	return dataset.YahooR4.Scaled(0.015).Generate(11).Matrix
}

// TestResumeEquivalenceAllVariants is the crash-safety contract as a
// property, extending the variant-equivalence suites: for every extended
// variant, training to iteration i with checkpointing, then resuming from
// the checkpoint and training to N, must produce factors bit-identical to
// an uninterrupted N-iteration run. Every iteration is a pure function of
// the current factors, so the checkpoint only has to restore them exactly.
func TestResumeEquivalenceAllVariants(t *testing.T) {
	mx := ckptMatrix(t)
	const n = 3
	for _, v := range variant.Extended() {
		base := Config{K: 6, Lambda: 0.1, Iterations: n, Seed: 7, Variant: v}
		straight, _, err := Train(mx, base)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		for _, stopAt := range []int{1, 2} {
			fsys := checkpoint.NewMemFS()
			partial := base
			partial.Iterations = stopAt
			partial.CheckpointDir = "ckpts"
			partial.CheckpointFS = fsys
			if _, _, err := Train(mx, partial); err != nil {
				t.Fatalf("%s stop=%d: %v", v, stopAt, err)
			}
			resumedCfg := base
			resumedCfg.CheckpointDir = "ckpts"
			resumedCfg.CheckpointFS = fsys
			resumedCfg.Resume = true
			resumed, info, err := Train(mx, resumedCfg)
			if err != nil {
				t.Fatalf("%s resume=%d: %v", v, stopAt, err)
			}
			if info.ResumedFrom != stopAt {
				t.Fatalf("%s: ResumedFrom = %d, want %d", v, info.ResumedFrom, stopAt)
			}
			if d := linalg.MaxAbsDiff(straight.X, resumed.X); d != 0 {
				t.Errorf("%s resume at %d: X differs by %g from uninterrupted run", v, stopAt, d)
			}
			if d := linalg.MaxAbsDiff(straight.Y, resumed.Y); d != 0 {
				t.Errorf("%s resume at %d: Y differs by %g from uninterrupted run", v, stopAt, d)
			}
		}
	}
}

// TestResumeAfterInjectedCrash: a run whose checkpoint write dies at an
// arbitrary byte must fail loudly, and rerunning the identical command
// with Resume must recover from the surviving checkpoint and still reach
// bit-identical factors.
func TestResumeAfterInjectedCrash(t *testing.T) {
	mx := ckptMatrix(t)
	base := Config{K: 5, Lambda: 0.1, Iterations: 3, Seed: 3, UseRecommended: true}
	straight, _, err := Train(mx, base)
	if err != nil {
		t.Fatal(err)
	}
	fsys := checkpoint.NewMemFS()
	crashed := base
	crashed.CheckpointDir = "ckpts"
	crashed.CheckpointFS = fsys
	// Let checkpoint 1 land, then kill checkpoint 2 partway through.
	probe := checkpoint.NewMemFS()
	p := base
	p.Iterations = 1
	p.CheckpointDir = "ckpts"
	p.CheckpointFS = probe
	if _, _, err := Train(mx, p); err != nil {
		t.Fatal(err)
	}
	fsys.SetFaults(checkpoint.Faults{FailWriteAfter: probe.BytesWritten() + probe.BytesWritten()/2})
	if _, _, err := Train(mx, crashed); err == nil {
		t.Fatal("training with a dying checkpoint writer reported success")
	}
	fsys.Crash()
	fsys.SetFaults(checkpoint.Faults{})
	rerun := base
	rerun.CheckpointDir = "ckpts"
	rerun.CheckpointFS = fsys
	rerun.Resume = true
	resumed, info, err := Train(mx, rerun)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 1 {
		t.Fatalf("ResumedFrom = %d, want 1 (the surviving checkpoint)", info.ResumedFrom)
	}
	if d := linalg.MaxAbsDiff(straight.X, resumed.X); d != 0 {
		t.Fatalf("X differs by %g after crash-resume", d)
	}
	if d := linalg.MaxAbsDiff(straight.Y, resumed.Y); d != 0 {
		t.Fatalf("Y differs by %g after crash-resume", d)
	}
}

// TestResumeRejectsMismatchedConfig: silently resuming under different
// hyperparameters would converge to a different model under the same job
// name.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	mx := ckptMatrix(t)
	fsys := checkpoint.NewMemFS()
	base := Config{K: 4, Lambda: 0.1, Iterations: 1, Seed: 5,
		CheckpointDir: "ckpts", CheckpointFS: fsys}
	if _, _, err := Train(mx, base); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"k":        func(c *Config) { c.K = 6 },
		"lambda":   func(c *Config) { c.Lambda = 0.2 },
		"seed":     func(c *Config) { c.Seed = 6 },
		"weighted": func(c *Config) { c.WeightedLambda = true },
		"variant":  func(c *Config) { c.Variant = variant.Options{Local: true} },
	} {
		cfg := base
		cfg.Iterations = 2
		cfg.Resume = true
		mutate(&cfg)
		if _, _, err := Train(mx, cfg); err == nil {
			t.Errorf("resume with mismatched %s accepted", name)
		}
	}
}

// TestImplicitResumeEquivalence extends the crash-safety contract to the
// implicit fast path: for each solver configuration (direct Cholesky, CG,
// iALS++ blocks), stop-and-resume must reproduce the uninterrupted run
// bit-identically. CG qualifies because its warm start reads the current
// factor row, which the checkpoint restores exactly.
func TestImplicitResumeEquivalence(t *testing.T) {
	mx := ckptMatrix(t)
	const n = 3
	for name, cfg := range map[string]Config{
		"direct": {K: 6, Lambda: 0.1, Iterations: n, Seed: 7, Implicit: true, Alpha: 40},
		"cg":     {K: 6, Lambda: 0.1, Iterations: n, Seed: 7, Implicit: true, Alpha: 40, Solver: host.SolverCG, CGIters: 4},
		"block":  {K: 6, Lambda: 0.1, Iterations: n, Seed: 7, Implicit: true, Alpha: 40, BlockSize: 3},
	} {
		straight, _, err := Train(mx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fsys := checkpoint.NewMemFS()
		partial := cfg
		partial.Iterations = 1
		partial.CheckpointDir = "ckpts"
		partial.CheckpointFS = fsys
		if _, _, err := Train(mx, partial); err != nil {
			t.Fatalf("%s partial: %v", name, err)
		}
		resumedCfg := cfg
		resumedCfg.CheckpointDir = "ckpts"
		resumedCfg.CheckpointFS = fsys
		resumedCfg.Resume = true
		resumed, info, err := Train(mx, resumedCfg)
		if err != nil {
			t.Fatalf("%s resume: %v", name, err)
		}
		if info.ResumedFrom != 1 {
			t.Fatalf("%s: ResumedFrom = %d, want 1", name, info.ResumedFrom)
		}
		if d := linalg.MaxAbsDiff(straight.X, resumed.X); d != 0 {
			t.Errorf("%s: X differs by %g from uninterrupted implicit run", name, d)
		}
		if d := linalg.MaxAbsDiff(straight.Y, resumed.Y); d != 0 {
			t.Errorf("%s: Y differs by %g from uninterrupted implicit run", name, d)
		}
	}
}

// TestCheckpointRecordsResolvedDefaults: an implicit CG run that leaves α and
// the CG budget unset trains with the defaults, so its checkpoint must say
// 40 / 3 — not the zeros that asked for them — and resuming with the
// defaults spelled out must continue it bit-identically.
func TestCheckpointRecordsResolvedDefaults(t *testing.T) {
	mx := ckptMatrix(t)
	unset := Config{K: 6, Lambda: 0.1, Iterations: 3, Seed: 7, Implicit: true, Solver: host.SolverCG}
	straight, _, err := Train(mx, unset)
	if err != nil {
		t.Fatal(err)
	}
	fsys := checkpoint.NewMemFS()
	partial := unset
	partial.Iterations = 1
	partial.CheckpointDir = "ckpts"
	partial.CheckpointFS = fsys
	if _, _, err := Train(mx, partial); err != nil {
		t.Fatal(err)
	}
	st, _, err := checkpoint.LoadLatest(fsys, "ckpts")
	if err != nil {
		t.Fatal(err)
	}
	if st.Alpha != host.DefaultAlpha || st.CGIters != host.DefaultCGIters {
		t.Errorf("checkpoint records alpha=%g cg-iters=%d, the run trained with %d / %d",
			st.Alpha, st.CGIters, host.DefaultAlpha, host.DefaultCGIters)
	}
	spelled := unset
	spelled.Alpha, spelled.CGIters = 40, 3
	spelled.CheckpointDir = "ckpts"
	spelled.CheckpointFS = fsys
	spelled.Resume = true
	resumed, info, err := Train(mx, spelled)
	if err != nil {
		t.Fatalf("resume with the defaults spelled out: %v", err)
	}
	if info.ResumedFrom != 1 {
		t.Fatalf("ResumedFrom = %d, want 1", info.ResumedFrom)
	}
	if d := max(linalg.MaxAbsDiff(straight.X, resumed.X), linalg.MaxAbsDiff(straight.Y, resumed.Y)); d != 0 {
		t.Errorf("resumed model differs by %g from the uninterrupted run", d)
	}
	// A file from before the defaults were resolved stores the zeros.
	st.Alpha, st.CGIters = 0, 0
	if err := resumeMismatch(st, &spelled, st.Variant); err != nil {
		t.Errorf("a stored 0 is not read as the default: %v", err)
	}
}

// TestResumeRejectsModeBoundary: a checkpoint from one training mode must
// not silently continue under another — the objective, solver arithmetic
// and hyperparameters all differ, so the result would be neither run.
func TestResumeRejectsModeBoundary(t *testing.T) {
	mx := ckptMatrix(t)
	explicitFS := checkpoint.NewMemFS()
	base := Config{K: 4, Lambda: 0.1, Iterations: 1, Seed: 5,
		CheckpointDir: "ckpts", CheckpointFS: explicitFS}
	if _, _, err := Train(mx, base); err != nil {
		t.Fatal(err)
	}
	implicitFS := checkpoint.NewMemFS()
	ibase := base
	ibase.CheckpointFS = implicitFS
	ibase.Implicit = true
	ibase.Alpha = 40
	if _, _, err := Train(mx, ibase); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		cfg  Config
		fsys checkpoint.FS
		want string
	}{
		"explicit->implicit": {ibase, explicitFS, "explicit-feedback"},
		"implicit->explicit": {base, implicitFS, "implicit-feedback"},
		"alpha": {func() Config { c := ibase; c.Alpha = 20; return c }(),
			implicitFS, "alpha"},
		"solver": {func() Config { c := ibase; c.Solver = host.SolverCG; c.CGIters = 3; return c }(),
			implicitFS, "solver"},
		// An unset budget is the default 3 the checkpoint below records, i.e.
		// the same run (TestCheckpointRecordsResolvedDefaults); 5 is another.
		"cg-iters": {func() Config { c := ibase; c.Solver = host.SolverCG; c.CGIters = 5; return c }(),
			func() checkpoint.FS {
				fs := checkpoint.NewMemFS()
				c := ibase
				c.CheckpointFS = fs
				c.Solver = host.SolverCG
				c.CGIters = 3
				if _, _, err := Train(mx, c); err != nil {
					t.Fatal(err)
				}
				return fs
			}(), "cg-iters"},
		"block-size": {func() Config { c := ibase; c.BlockSize = 2; return c }(),
			implicitFS, "block-size"},
	} {
		cfg := tc.cfg
		cfg.Iterations = 2
		cfg.CheckpointFS = tc.fsys
		cfg.Resume = true
		_, _, err := Train(mx, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume across mode boundary = %v, want error mentioning %q", name, err, tc.want)
		}
	}
}

// TestCheckpointEveryAndGC: the stride writes iterations every, 2·every, …
// plus always the final one; GC bounds the directory.
func TestCheckpointEveryAndGC(t *testing.T) {
	mx := ckptMatrix(t)
	fsys := checkpoint.NewMemFS()
	cfg := Config{K: 4, Lambda: 0.1, Iterations: 5, Seed: 2,
		CheckpointDir: "ckpts", CheckpointFS: fsys,
		CheckpointEvery: 2, CheckpointKeep: 2}
	if _, _, err := Train(mx, cfg); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.ReadDir("ckpts")
	if err != nil {
		t.Fatal(err)
	}
	// Written: 2, 4, 5 (final); kept: newest 2.
	want := []string{checkpoint.FileName(4), checkpoint.FileName(5)}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("checkpoint dir = %v, want %v", names, want)
	}
}

// TestCheckpointHistoryCarriesAcrossResume: restored loss history plus the
// resumed run's own history must read as one continuous run.
func TestCheckpointHistoryCarriesAcrossResume(t *testing.T) {
	mx := ckptMatrix(t)
	fsys := checkpoint.NewMemFS()
	base := Config{K: 4, Lambda: 0.1, Iterations: 2, Seed: 9, TrackLoss: true,
		CheckpointDir: "ckpts", CheckpointFS: fsys}
	if _, _, err := Train(mx, base); err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Iterations = 4
	cfg.Resume = true
	_, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.History) != 8 {
		t.Fatalf("combined history has %d half-steps, want 8", len(info.History))
	}
	for i, h := range info.History {
		if h.Iteration != i/2+1 {
			t.Fatalf("history[%d] is iteration %d, want %d", i, h.Iteration, i/2+1)
		}
		if math.IsNaN(h.Loss) {
			t.Fatalf("history[%d] loss is NaN", i)
		}
	}
}

// TestResumeOfCompletedRun: resuming a run whose checkpoint already
// reached Iterations returns the checkpointed factors untouched.
func TestResumeOfCompletedRun(t *testing.T) {
	mx := ckptMatrix(t)
	fsys := checkpoint.NewMemFS()
	cfg := Config{K: 4, Lambda: 0.1, Iterations: 2, Seed: 13,
		CheckpointDir: "ckpts", CheckpointFS: fsys}
	first, _, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	again, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 2 {
		t.Fatalf("ResumedFrom = %d, want 2", info.ResumedFrom)
	}
	if d := linalg.MaxAbsDiff(first.X, again.X); d != 0 {
		t.Fatalf("completed-run resume changed X by %g", d)
	}
}

// TestCheckpointConfigValidation: the flag combinations that cannot work
// must fail fast.
func TestCheckpointConfigValidation(t *testing.T) {
	mx := ckptMatrix(t)
	if _, _, err := Train(mx, Config{Resume: true}); err == nil ||
		!strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("Resume without dir = %v", err)
	}
	if _, _, err := Train(mx, Config{Platform: "GPU", CheckpointDir: "x",
		CheckpointFS: checkpoint.NewMemFS()}); err == nil ||
		!strings.Contains(err.Error(), "host") {
		t.Fatalf("simulated-platform checkpointing = %v", err)
	}
	// The checkpoint dir path goes through t.TempDir for the real-FS
	// default: CheckpointFS nil must hit the actual disk.
	dir := filepath.Join(t.TempDir(), "ckpts")
	cfg := Config{K: 4, Lambda: 0.1, Iterations: 1, Seed: 1, CheckpointDir: dir}
	if _, _, err := Train(mx, cfg); err != nil {
		t.Fatal(err)
	}
	if st, _, err := checkpoint.LoadLatest(checkpoint.OS, dir); err != nil || st.Iteration != 1 {
		t.Fatalf("real-FS checkpoint: %+v, %v", st, err)
	}
}

// TestInterruptGraceful: closing Config.Interrupt stops the run at the next
// iteration boundary with ErrInterrupted and a resumable checkpoint — even
// when the checkpoint stride would have skipped that iteration — and the
// resumed run reaches factors bit-identical to an uninterrupted one.
func TestInterruptGraceful(t *testing.T) {
	mx := ckptMatrix(t)
	base := Config{K: 4, Lambda: 0.1, Iterations: 4, Seed: 7}
	straight, _, err := Train(mx, base)
	if err != nil {
		t.Fatal(err)
	}

	ch := make(chan struct{})
	close(ch)
	fsys := checkpoint.NewMemFS()
	cfg := base
	cfg.CheckpointDir = "ckpts"
	cfg.CheckpointFS = fsys
	cfg.CheckpointEvery = 3 // iteration 1 would not checkpoint on stride alone
	cfg.Interrupt = ch
	_, _, err = Train(mx, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	st, _, err := checkpoint.LoadLatest(fsys, "ckpts")
	if err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	if st.Iteration != 1 {
		t.Fatalf("checkpoint at iteration %d, want the forced boundary save at 1", st.Iteration)
	}

	cfg.Interrupt = nil
	cfg.Resume = true
	resumed, info, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 1 {
		t.Fatalf("ResumedFrom = %d, want 1", info.ResumedFrom)
	}
	if d := linalg.MaxAbsDiff(straight.X, resumed.X); d != 0 {
		t.Fatalf("resumed run differs from uninterrupted by %g", d)
	}

	// Without checkpointing the interrupt still stops the run cleanly.
	cfg = base
	cfg.Interrupt = ch
	if _, _, err := Train(mx, cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("uncheckpointed interrupt = %v, want ErrInterrupted", err)
	}
}
