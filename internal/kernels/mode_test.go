package kernels

import "testing"

// TestEstimateModeCGBeatsDirect: the reason the CG solver exists — at the
// serving-scale latent dimension (k=64) a 3-iteration matrix-free solve
// does far fewer flops than assembling and factorizing the k×k system.
// EXPERIMENTS.md ("implicit-feedback training modes") records the same
// relation in wall-clock (4.0×); the model must predict a comfortable margin.
func TestEstimateModeCGBeatsDirect(t *testing.T) {
	const k, omega = 64, 100
	direct, err := EstimateMode(ModeSpec{Implicit: true, Solver: "chol"}, k, omega)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := EstimateMode(ModeSpec{Implicit: true, Solver: "cg", CGIters: 3}, k, omega)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := direct.Total() / cg.Total(); ratio < 1.2 {
		t.Fatalf("model predicts CG speedup %.2fx at k=%d, want ≥ 1.2x", ratio, k)
	}
	// At its worst-case budget (2k iterations) CG loses the advantage —
	// the budget is the trade-off, and the model must show it.
	full, err := EstimateMode(ModeSpec{Implicit: true, Solver: "cg", CGIters: 2 * k}, k, omega)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total() < direct.Total() {
		t.Fatalf("model predicts exhaustive CG (%.0f flops) cheaper than direct (%.0f)", full.Total(), direct.Total())
	}
}

// TestEstimateModeBlockScaling pins the iALS++ trade-off: per-row update
// cost strictly increases with block size b, and the b=k point lands in
// the same regime as the full direct solve (one exact Newton step).
func TestEstimateModeBlockScaling(t *testing.T) {
	const k, omega = 64, 100
	prev := 0.0
	for _, b := range []int{4, 8, 16, 32, 64} {
		c, err := EstimateMode(ModeSpec{Implicit: true, Solver: "chol", BlockSize: b}, k, omega)
		if err != nil {
			t.Fatal(err)
		}
		if c.Total() <= prev {
			t.Fatalf("block cost not increasing: b=%d gives %.0f, previous %.0f", b, c.Total(), prev)
		}
		prev = c.Total()
	}
	direct, err := EstimateMode(ModeSpec{Implicit: true, Solver: "chol"}, k, omega)
	if err != nil {
		t.Fatal(err)
	}
	full, err := EstimateMode(ModeSpec{Implicit: true, Solver: "chol", BlockSize: k}, k, omega)
	if err != nil {
		t.Fatal(err)
	}
	if r := full.Total() / direct.Total(); r < 0.5 || r > 2 {
		t.Fatalf("b=k cost %.0f not within 2x of direct %.0f (ratio %.2f)", full.Total(), direct.Total(), r)
	}
}

// TestEstimateModeImplicitMatchesExplicitDirect: the shared-Gram design is
// exactly what makes implicit rows cost the same as explicit ones — the
// model encodes that equivalence for the direct solver.
func TestEstimateModeImplicitMatchesExplicitDirect(t *testing.T) {
	const k, omega = 16, 40
	ex, err := EstimateMode(ModeSpec{Solver: "chol"}, k, omega)
	if err != nil {
		t.Fatal(err)
	}
	im, err := EstimateMode(ModeSpec{Implicit: true, Solver: "chol"}, k, omega)
	if err != nil {
		t.Fatal(err)
	}
	if ex != im {
		t.Fatalf("direct-solver cost differs across modes: explicit %+v, implicit %+v", ex, im)
	}
}

// TestEstimateModeRejectsInvalid: impossible shapes and mode combinations
// must error, matching host.Config validation.
func TestEstimateModeRejectsInvalid(t *testing.T) {
	if _, err := EstimateMode(ModeSpec{Solver: "chol"}, 0, 5); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := EstimateMode(ModeSpec{Solver: "chol"}, 8, -1); err == nil {
		t.Fatal("negative omega accepted")
	}
	if _, err := EstimateMode(ModeSpec{Solver: "chol", BlockSize: 4}, 8, 5); err == nil {
		t.Fatal("explicit block size accepted")
	}
	if _, err := EstimateMode(ModeSpec{Implicit: true, Solver: "cg", BlockSize: 4}, 8, 5); err == nil {
		t.Fatal("cg block size accepted")
	}
}
