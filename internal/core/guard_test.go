package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// TestDivergenceRollback: a chaos loss blow-up mid-run must roll training
// back to the last good checkpoint, escalate λ, and still finish with
// finite factors — the watchdog's full recovery loop.
func TestDivergenceRollback(t *testing.T) {
	mx := ckptMatrix(t)
	g := guard.New(guard.Policy{})
	g.Chaos = &guard.Chaos{BlowUpIter: 2}
	fsys := checkpoint.NewMemFS()
	model, info, err := Train(mx, Config{
		K: 5, Lambda: 0.1, Iterations: 4, Seed: 3,
		CheckpointDir: "ckpts", CheckpointFS: fsys, Guard: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rollbacks != 1 {
		t.Fatalf("RunInfo.Rollbacks = %d, want 1", info.Rollbacks)
	}
	if g.Rollbacks() != 1 {
		t.Fatalf("guard counted %d rollbacks, want 1", g.Rollbacks())
	}
	if !guard.FiniteVec(model.X.Data) || !guard.FiniteVec(model.Y.Data) {
		t.Fatal("post-rollback factors are not finite")
	}
	if rmse := model.RMSE(mx.R); math.IsNaN(rmse) || rmse > 1.5 {
		t.Fatalf("post-rollback RMSE = %g", rmse)
	}
	// The saved checkpoints must carry the ORIGINAL λ (escalation is a
	// transient recovery measure, not a config change), so a later -resume
	// of the same command line passes the config-mismatch check.
	st, _, err := checkpoint.LoadLatest(fsys, "ckpts")
	if err != nil {
		t.Fatal(err)
	}
	if st.Lambda != 0.1 {
		t.Fatalf("checkpoint records λ=%g, want the configured 0.1", st.Lambda)
	}
}

// TestRollbackRestartsWithCurrentGrams: implicit training keeps the shared
// Gram of each factor between a half and the objective that follows it. A
// rollback restarts from a checkpoint's factors, and the replay's objective
// and halves must read Grams of those — every loss recorded after the
// rollback is the serial oracle's on the factors at that point (at the
// escalated λ the replay trains with), and the run ends where a run resumed
// by hand from the same checkpoint at that λ ends, bit for bit.
func TestRollbackRestartsWithCurrentGrams(t *testing.T) {
	mx := ckptMatrix(t)
	g := guard.New(guard.Policy{})
	g.Chaos = &guard.Chaos{BlowUpIter: 2}
	fsys := checkpoint.NewMemFS()
	base := Config{
		K: 6, Lambda: 0.1, Iterations: 4, Seed: 3, Workers: 2,
		Implicit: true, Alpha: 5, Solver: host.SolverCG, TrackLoss: true,
	}
	cfg := base
	cfg.CheckpointDir, cfg.CheckpointFS, cfg.CheckpointKeep, cfg.Guard = "ckpts", fsys, base.Iterations, g
	model, info, err := Train(mx, cfg)
	if err != nil || info.Rollbacks != 1 {
		t.Fatalf("err %v, rollbacks %d", err, info.Rollbacks)
	}
	lam := float64(base.Lambda) * guard.LambdaEscalation
	last := info.History[len(info.History)-1]
	want := metrics.ImplicitLoss(mx.R, model.X, model.Y, float64(base.Alpha), lam)
	if d := math.Abs(last.Loss-want) / want; !(d <= 1e-12) {
		t.Errorf("final loss %.17g, oracle on the final factors %.17g (rel %g)", last.Loss, want, d)
	}

	st, err := checkpoint.Load(fsys, "ckpts/"+checkpoint.FileName(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := host.Train(mx, host.Config{
		K: base.K, Lambda: base.Lambda * guard.LambdaEscalation, Iterations: base.Iterations, Seed: base.Seed, Workers: base.Workers,
		Implicit: true, Alpha: base.Alpha, Solver: base.Solver, CGIters: host.DefaultCGIters,
		Variant:        variant.Options{},
		StartIteration: 1, ResumeX: st.X, ResumeY: st.Y,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dx, dy := linalg.MaxAbsDiff(res.X, model.X), linalg.MaxAbsDiff(res.Y, model.Y); dx != 0 || dy != 0 {
		t.Errorf("post-rollback factors differ from a resume of checkpoint 1 at λ=%g by %g / %g", lam, dx, dy)
	}
}

// TestRollbackWithoutCheckpointRestarts: with no checkpoint directory the
// rollback degrades to a from-scratch restart with escalated λ and must
// still converge.
func TestRollbackWithoutCheckpointRestarts(t *testing.T) {
	mx := ckptMatrix(t)
	g := guard.New(guard.Policy{})
	g.Chaos = &guard.Chaos{BlowUpIter: 2}
	model, info, err := Train(mx, Config{K: 5, Lambda: 0.1, Iterations: 3, Seed: 3, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rollbacks != 1 {
		t.Fatalf("RunInfo.Rollbacks = %d, want 1", info.Rollbacks)
	}
	if !guard.FiniteVec(model.X.Data) {
		t.Fatal("factors not finite after checkpoint-less restart")
	}
}

// TestRollbacksExhausted: once the rollback budget is spent, the run must
// surface the typed divergence error instead of looping forever.
func TestRollbacksExhausted(t *testing.T) {
	mx := ckptMatrix(t)
	g := guard.New(guard.Policy{})
	g.MaxRollbacks = 0 // no budget: the first divergence is fatal
	g.Chaos = &guard.Chaos{BlowUpIter: 2}
	_, _, err := Train(mx, Config{K: 5, Lambda: 0.1, Iterations: 3, Seed: 3, Guard: g})
	if !errors.Is(err, guard.ErrDiverged) {
		t.Fatalf("error = %v, want ErrDiverged", err)
	}
	var de *guard.DivergedError
	if !errors.As(err, &de) || de.Iteration != 2 {
		t.Fatalf("error %v does not name iteration 2", err)
	}
}

// TestStrictDivergenceFailsFast: under Strict the watchdog's finding is
// fatal immediately — no rollback, no λ escalation.
func TestStrictDivergenceFailsFast(t *testing.T) {
	mx := ckptMatrix(t)
	g := guard.New(guard.Policy{Strict: true})
	g.Chaos = &guard.Chaos{BlowUpIter: 2}
	fsys := checkpoint.NewMemFS()
	_, _, err := Train(mx, Config{
		K: 5, Lambda: 0.1, Iterations: 3, Seed: 3,
		CheckpointDir: "ckpts", CheckpointFS: fsys, Guard: g,
	})
	if !errors.Is(err, guard.ErrDiverged) {
		t.Fatalf("error = %v, want ErrDiverged", err)
	}
	if g.Rollbacks() != 0 {
		t.Fatal("strict mode rolled back")
	}
}

// TestGuardSanitizesInput: corrupt ratings (NaN/Inf/huge) are quarantined
// before training in non-strict mode, and the counters say what was fixed.
func TestGuardSanitizesInput(t *testing.T) {
	// Sanitizing mutates the matrix in place, so each phase builds its own.
	poisoned := func() *sparse.Matrix {
		coo := sparse.NewCOO(40, 30)
		for u := 0; u < 40; u++ {
			for j := 0; j < 4; j++ {
				coo.Append(u, (u*3+j*7)%30, float32(1+(u+j)%5))
			}
		}
		coo.Append(0, 11, float32(math.NaN()))
		coo.Append(1, 12, float32(math.Inf(1)))
		coo.Append(2, 13, 1e30)
		mx, err := sparse.NewMatrix(coo)
		if err != nil {
			t.Fatal(err)
		}
		return mx
	}
	mx := poisoned()
	g := guard.New(guard.Policy{})
	model, _, err := Train(mx, Config{K: 4, Lambda: 0.1, Iterations: 3, Seed: 2, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.TotalSanitized(); got != 3 {
		t.Fatalf("sanitized %d ratings, want 3", got)
	}
	if g.Sanitized(guard.SanitizedNaN) != 1 || g.Sanitized(guard.SanitizedInf) != 1 || g.Sanitized(guard.SanitizedHuge) != 1 {
		t.Fatalf("per-kind counts wrong: nan=%d inf=%d huge=%d",
			g.Sanitized(guard.SanitizedNaN), g.Sanitized(guard.SanitizedInf), g.Sanitized(guard.SanitizedHuge))
	}
	if !guard.FiniteVec(model.X.Data) || !guard.FiniteVec(model.Y.Data) {
		t.Fatal("factors not finite after sanitizing")
	}
	// Strict must leave the poison in and die inside training with an error
	// that names the failing iteration and row.
	gs := guard.New(guard.Policy{Strict: true})
	_, _, err = Train(poisoned(), Config{K: 4, Lambda: 0.1, Iterations: 3, Seed: 2, Guard: gs})
	if err == nil {
		t.Fatal("strict run trained through NaN ratings")
	}
	if errors.Is(err, guard.ErrDiverged) {
		return // the watchdog caught it at the iteration boundary: acceptable
	}
	var re *guard.RowError
	if !errors.As(err, &re) {
		t.Fatalf("strict error %v is neither RowError nor DivergedError", err)
	}
}

// TestGuardNonHostRejected: the guard is a host-path feature; asking for it
// on a simulated device must be a typed configuration error, not a silent
// no-op.
func TestGuardNonHostRejected(t *testing.T) {
	mx := ckptMatrix(t)
	g := guard.New(guard.Policy{})
	_, _, err := Train(mx, Config{Platform: "GPU", UseRecommended: true, Guard: g})
	if err == nil {
		t.Fatal("guard accepted on a simulated platform")
	}
}
