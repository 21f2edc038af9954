package host

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// oracle is the serial objective of internal/metrics for cfg's mode.
func oracle(cfg Config, mx *sparse.Matrix, x, y *linalg.Dense) float64 {
	if cfg.Implicit {
		return metrics.ImplicitLoss(mx.R, x, y, float64(cfg.Alpha), float64(cfg.Lambda))
	}
	return metrics.RegularizedLoss(mx.R, x, y, float64(cfg.Lambda), cfg.WeightedLambda)
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestObjectivePassMatchesOracle: every loss Train records comes from the
// pool's objective pass; it must agree with the serial metrics oracle on the
// same factors to 1e-12 relative (the two differ only in float64 summation
// order) and must not depend on the worker count at all. The factors behind
// the X-half entry of iteration t are X after iteration t (the Y half does
// not touch X) and Y after iteration t−1.
func TestObjectivePassMatchesOracle(t *testing.T) {
	mx := smallDataset(t, 61)
	modes := []struct {
		name string
		cfg  Config
	}{
		{"explicit plain-λ", Config{K: 10, Lambda: 0.1}},
		{"explicit weighted-λ", Config{K: 10, Lambda: 0.05, WeightedLambda: true}},
		{"implicit", Config{K: 10, Lambda: 0.1, Implicit: true, Alpha: 5}},
		{"implicit cg", Config{K: 10, Lambda: 0.1, Implicit: true, Alpha: 5, Solver: SolverCG}},
	}
	for _, mode := range modes {
		var ref []IterStats
		for _, workers := range []int{1, 2, 4} {
			cfg := mode.cfg
			cfg.Iterations, cfg.Seed, cfg.Workers, cfg.TrackLoss = 3, 9, workers, true
			prevY := InitialY(mx.Cols(), cfg.K, cfg.Seed)
			var want []float64
			cfg.OnIteration = func(it int, x, y *linalg.Dense, _ []IterStats) error {
				want = append(want, oracle(cfg, mx, x, prevY), oracle(cfg, mx, x, y))
				prevY = y.Clone()
				return nil
			}
			res, err := Train(mx, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", mode.name, workers, err)
			}
			if len(res.History) != len(want) {
				t.Fatalf("%s workers=%d: %d history entries, want %d", mode.name, workers, len(res.History), len(want))
			}
			for i, h := range res.History {
				if d := relDiff(h.Loss, want[i]); !(d <= 1e-12) {
					t.Errorf("%s workers=%d: iteration %d half %s: pass %.17g, oracle %.17g (rel %g)",
						mode.name, workers, h.Iteration, h.Half, h.Loss, want[i], d)
				}
			}
			if ref == nil {
				ref = res.History
				continue
			}
			for i, h := range res.History {
				if h.Loss != ref[i].Loss {
					t.Errorf("%s workers=%d: iteration %d half %s: loss %.17g differs from the single-worker %.17g",
						mode.name, workers, h.Iteration, h.Half, h.Loss, ref[i].Loss)
				}
			}
		}
	}
}

// TestBlowUpJudgedOnCorruptedFactors: the chaos blow-up scales X after the
// Y half took XᵀX, so the watchdog's evaluation must not read that Gram.
// The loss it reports has to be the oracle's on the corrupted factors; with
// the stale Gram the all-items baseline would be 10¹² times too small. Run
// with and without TrackLoss: the watchdog reaches the pass from either side
// of that switch.
func TestBlowUpJudgedOnCorruptedFactors(t *testing.T) {
	mx := smallDataset(t, 63)
	for _, trackLoss := range []bool{false, true} {
		base := Config{K: 8, Lambda: 0.1, Iterations: 2, Seed: 4, Workers: 2,
			Implicit: true, Alpha: 5, TrackLoss: trackLoss}
		clean, err := Train(mx, base)
		if err != nil {
			t.Fatal(err)
		}
		chaos := &guard.Chaos{BlowUpIter: 2}
		chaos.CorruptFactors(clean.X.Data)
		want := oracle(base, mx, clean.X, clean.Y)

		cfg := base
		cfg.Guard = guard.New(guard.Policy{})
		cfg.Guard.Chaos = chaos
		_, err = Train(mx, cfg)
		var de *guard.DivergedError
		if !errors.As(err, &de) || de.Iteration != 2 || de.Reason != "loss blow-up" {
			t.Fatalf("TrackLoss=%v: Train = %v, want a loss blow-up at iteration 2", trackLoss, err)
		}
		if d := relDiff(de.Loss, want); !(d <= 1e-12) {
			t.Fatalf("TrackLoss=%v: watchdog judged loss %.17g, oracle on the corrupted factors %.17g (rel %g)",
				trackLoss, de.Loss, want, d)
		}
	}
}

// TestObjectiveAllocsZero: like a row update, a row's share of the objective
// touches no heap on a warmed worker, guard armed or not.
func TestObjectiveAllocsZero(t *testing.T) {
	mx := smallDataset(t, 64)
	for _, g := range []*guard.Guard{nil, guard.New(guard.Policy{})} {
		for name, cfg := range map[string]Config{
			"explicit":          {K: 10, Lambda: 0.1, Variant: variant.Options{Fused: true, Vector: true}},
			"explicit weighted": {K: 10, Lambda: 0.1, WeightedLambda: true},
			"explicit cg":       {K: 10, Lambda: 0.1, Solver: SolverCG},
			"implicit":          {K: 10, Lambda: 0.1, Implicit: true},
			"implicit cg":       {K: 10, Lambda: 0.1, Implicit: true, Solver: SolverCG},
		} {
			cfg.Guard = g
			if n := ObjectiveAllocs(mx, cfg); n != 0 {
				t.Errorf("%s (guard %v): %v allocs per row of the objective pass, want 0", name, g != nil, n)
			}
			if n := RowUpdateAllocs(mx, cfg); n != 0 {
				t.Errorf("%s (guard %v): %v allocs per row update, want 0", name, g != nil, n)
			}
		}
	}
}

// BenchmarkObjectivePass times one evaluation of the objective on the pool
// (the side just solved, its Gram in memory) next to the serial metrics
// oracle on the same factors.
func BenchmarkObjectivePass(b *testing.B) {
	mx := dataset.YahooR4.Generate(65).Matrix // 211k ratings: enough rows for two workers to share
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"explicit", Config{K: 32, Lambda: 0.1, Variant: variant.Options{Fused: true, Vector: true}}},
		{"implicit", Config{K: 32, Lambda: 0.1, Implicit: true, Alpha: 5, Solver: SolverCG}},
	} {
		cfg := mode.cfg
		cfg.setDefaults()
		x := linalg.NewDense(mx.Rows(), cfg.K)
		y := InitialY(mx.Cols(), cfg.K, 1)
		rt := mx.RT()
		terms := make([]float64, max(mx.Rows(), mx.Cols()))
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			pool := newWorkerPool(cfg)
			sx, sy := pool.side(mx.R, y, x, true), pool.side(rt, x, y, false)
			if err := pool.runHalf(sx, 1); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkLoss = pool.objective(sx, sy, terms)
				}
			})
			pool.close()
		}
		b.Run(mode.name+"/metrics", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkLoss = oracle(cfg, mx, x, y)
			}
		})
	}
}

var sinkLoss float64
