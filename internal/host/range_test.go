package host

import (
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// TestUpdateRangeMatchesTrainHalf: updating a side as three row ranges
// through a RangeUpdater must reproduce the same rows of a Train half bit
// for bit — the property the distributed trainer's bit-identity rests on,
// pinned here without a fleet around it. CG is the sharp case: it warm
// starts from the output row, and implicit mode recomputes the shared Gram
// per call.
func TestUpdateRangeMatchesTrainHalf(t *testing.T) {
	mx := smallDataset(t, 61)
	m, n := mx.Rows(), mx.Cols()
	rt := mx.RT()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"explicit tb+vec+fus", Config{Variant: variant.Options{Vector: true, Fused: true}}},
		{"implicit cg", Config{Implicit: true, Alpha: 5, Solver: SolverCG}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.K, cfg.Lambda, cfg.Iterations, cfg.Seed, cfg.Workers = 8, 0.1, 1, 17, 2
		want, err := Train(mx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ru, err := NewRangeUpdater(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x := linalg.NewDense(m, cfg.K)
		y := InitialY(n, cfg.K, cfg.Seed)
		halves := []struct {
			r          *sparse.CSR
			fixed, out *linalg.Dense
		}{{mx.R, y, x}, {rt, x, y}}
		for h, half := range halves {
			rows := half.r.NumRows
			cuts := []int{0, rows / 3, 2*rows/3 + 1, rows}
			for i := 0; i+1 < len(cuts); i++ {
				if err := ru.UpdateRange(half.r, half.fixed, half.out, cuts[i], cuts[i+1], 1, h == 0); err != nil {
					t.Fatalf("%s: range [%d,%d): %v", tc.name, cuts[i], cuts[i+1], err)
				}
			}
		}
		ru.Close()
		if d := linalg.MaxAbsDiff(want.X, x); d != 0 {
			t.Errorf("%s: X from three ranges differs from Train by %g", tc.name, d)
		}
		if d := linalg.MaxAbsDiff(want.Y, y); d != 0 {
			t.Errorf("%s: Y from three ranges differs from Train by %g", tc.name, d)
		}
	}
}

// TestUpdateRangeSeesARewrittenFixedFactor: between two calls the factors
// are the caller's — the distributed trainer overwrites the fixed one with
// the coordinator's broadcast — so the second call of the same half, on the
// same Dense rewritten in place, must solve against the new factor's Gram,
// as a fresh updater does.
func TestUpdateRangeSeesARewrittenFixedFactor(t *testing.T) {
	mx := smallDataset(t, 67)
	m, n := mx.Rows(), mx.Cols()
	cfg := Config{K: 8, Lambda: 0.1, Seed: 17, Workers: 2, Implicit: true, Alpha: 5}
	solve := func(ru *RangeUpdater, y *linalg.Dense) *linalg.Dense {
		x := linalg.NewDense(m, cfg.K)
		if err := ru.UpdateRange(mx.R, y, x, 0, m, 1, true); err != nil {
			t.Fatal(err)
		}
		return x
	}
	ru, err := NewRangeUpdater(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ru.Close()
	y := InitialY(n, cfg.K, cfg.Seed)
	solve(ru, y)
	copy(y.Data, InitialY(n, cfg.K, cfg.Seed+1).Data) // the broadcast lands
	got := solve(ru, y)

	fresh, err := NewRangeUpdater(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if d := linalg.MaxAbsDiff(solve(fresh, y), got); d != 0 {
		t.Errorf("the second call solved against the first call's Gram: X differs from a fresh updater's by %g", d)
	}
}

// TestNewRangeUpdaterValidatesMode: a mode Train would reject must not be
// silently trained as something else by the distributed building block.
func TestNewRangeUpdaterValidatesMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown solver", Config{Solver: Solver(9)}, "solver"},
		{"block explicit", Config{BlockSize: 2}, "implicit"},
		{"weighted implicit", Config{Implicit: true, WeightedLambda: true}, "WeightedLambda"},
	} {
		ru, err := NewRangeUpdater(tc.cfg)
		if err == nil {
			ru.Close()
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
