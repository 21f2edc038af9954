package host

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/guard"
	"repro/internal/linalg"
)

func randomFactor(rng *rand.Rand, rows, k int) *linalg.Dense {
	d := linalg.NewDense(rows, k)
	for i := range d.Data {
		d.Data[i] = rng.Float32()*2 - 1
	}
	return d
}

// sameGram holds every projection of got, and the float64 sums through Frob,
// to want's bit for bit.
func sameGram(t *testing.T, got, want *linalg.SharedGram, what string) {
	t.Helper()
	for i := range want.Dense {
		if math.Float32bits(got.Dense[i]) != math.Float32bits(want.Dense[i]) || math.Float64bits(got.Wide[i]) != math.Float64bits(want.Wide[i]) {
			t.Fatalf("%s: Gram entry %d differs: %v vs %v", what, i, got.Dense[i], want.Dense[i])
		}
	}
	for i := range want.Packed {
		if math.Float32bits(got.Packed[i]) != math.Float32bits(want.Packed[i]) {
			t.Fatalf("%s: packed slot %d differs", what, i)
		}
	}
	if a, b := got.Frob(got), want.Frob(want); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s: float64 sums differ: ⟨G,G⟩ = %x vs %x", what, math.Float64bits(a), math.Float64bits(b))
	}
}

// TestGramPassMatchesComputeAtAnyPoolSize: the pool's Gram pass gives the
// serial Compute's Gram bit for bit with 1, 2, 3, 4, 7 and 16 workers —
// fewer, as many and more workers than there are pieces to claim — for a k
// the tile kernel takes and one it does not, and a warmed pass allocates
// nothing.
func TestGramPassMatchesComputeAtAnyPoolSize(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, k := range []int{10, 64} {
		f := randomFactor(rng, 333, k)
		want := linalg.NewSharedGram(k)
		want.Compute(f)
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			cfg := Config{K: k, Workers: workers, Implicit: true}
			cfg.setDefaults()
			p := newWorkerPool(cfg)
			fg := &p.grams[0]
			g, reused := p.gramOf(nil, fg, f)
			what := fmt.Sprintf("k=%d workers=%d", k, workers)
			if reused {
				t.Fatalf("%s: a new pool's Gram passed for fresh", what)
			}
			sameGram(t, g, want, what)
			if _, reused = p.gramOf(nil, fg, f); !reused {
				t.Fatalf("%s: a Gram nothing invalidated was recomputed", what)
			}
			if n := allocsPerRun(5, func() {
				fg.fresh = false
				p.gramOf(nil, fg, f)
			}); n != 0 {
				t.Errorf("%s: a Gram pass allocates %v times, want 0", what, n)
			}
			sameGram(t, g, want, what+" (after reuse)")
			p.close()
		}
	}
}

// TestEveryHalfSeesTheCurrentFactorsGram: whatever sits between two halves —
// nothing, an objective after each half (TrackLoss), one per iteration
// (guard, tolerance) — Train's factors are those of a loop that recomputes
// the Gram serially before every half, bit for bit; and every recorded loss
// is the serial oracle's on the factors of that moment, which it can only be
// if both Grams under the Frobenius baseline are current. On YMR4 and on the
// catalog benchmark's shape (many more items than users, k = 64, CG).
func TestEveryHalfSeesTheCurrentFactorsGram(t *testing.T) {
	catalog := dataset.Preset{Name: "CATALOG", Long: "catalog shape, small", Users: 250, Items: 2500,
		NNZ: 20000, MinVal: 0.5, MaxVal: 5, UserSkew: 0.82, ItemSkew: 0.78}
	for _, tc := range []struct {
		name string
		mx   *dataset.Dataset
		cfg  Config
	}{
		{"YMR4 chol", dataset.YahooR4.Scaled(0.05).Generate(5), Config{K: 10, Lambda: 0.1, Implicit: true, Alpha: 5}},
		{"catalog cg", catalog.Generate(6), Config{K: 64, Lambda: 0.1, Implicit: true, Alpha: 5, Solver: SolverCG}},
	} {
		mx := tc.mx.Matrix
		rt := mx.RT()
		base := tc.cfg
		base.Iterations, base.Seed, base.Workers = 3, 11, 3

		// The reference: a pool driven half by half, its Grams computed here.
		ref := base
		ref.setDefaults()
		wantX, wantY := linalg.NewDense(mx.Rows(), ref.K), InitialY(mx.Cols(), ref.K, ref.Seed)
		pool := newWorkerPool(ref)
		g := linalg.NewSharedGram(ref.K)
		sx, sy := pool.side(mx.R, wantY, wantX, true), pool.side(rt, wantX, wantY, false)
		for it := 1; it <= ref.Iterations; it++ {
			for _, s := range []halfSide{sx, sy} {
				g.Compute(s.fixed)
				if err := pool.do(&halfJob{halfSide: s, iter: it, gram: g}); err != nil {
					t.Fatal(err)
				}
			}
		}
		pool.close()

		for _, mode := range []struct {
			name string
			set  func(*Config)
		}{
			{"plain", func(*Config) {}},
			{"track loss", func(c *Config) { c.TrackLoss = true }},
			{"tolerance", func(c *Config) { c.Tolerance = 1e-12 }},
			{"guard", func(c *Config) { c.Guard = guard.New(guard.Policy{}) }},
		} {
			cfg := base
			mode.set(&cfg)
			prevY := InitialY(mx.Cols(), cfg.K, cfg.Seed)
			var want []float64
			cfg.OnIteration = func(it int, x, y *linalg.Dense, _ []IterStats) error {
				want = append(want, oracle(cfg, mx, x, prevY), oracle(cfg, mx, x, y))
				prevY = y.Clone()
				return nil
			}
			res, err := Train(mx, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, mode.name, err)
			}
			if dx, dy := linalg.MaxAbsDiff(res.X, wantX), linalg.MaxAbsDiff(res.Y, wantY); dx != 0 || dy != 0 {
				t.Errorf("%s %s: factors differ from the recompute-every-half loop's by %g / %g", tc.name, mode.name, dx, dy)
			}
			for i, h := range res.History {
				if d := relDiff(h.Loss, want[i]); !(d <= 1e-12) {
					t.Errorf("%s %s: iteration %d half %s: loss %.17g, oracle %.17g (rel %g)",
						tc.name, mode.name, h.Iteration, h.Half, h.Loss, want[i], d)
				}
			}
			if cfg.TrackLoss && len(res.History) != 2*cfg.Iterations {
				t.Errorf("%s %s: %d losses recorded, want %d", tc.name, mode.name, len(res.History), 2*cfg.Iterations)
			}
		}
	}
}

// BenchmarkGramPass is the pool's Gram pass on the catalog workload's item
// factor (50 000 × 64) with one and two workers, next to the serial Compute.
func BenchmarkGramPass(b *testing.B) {
	const rows, k = 50000, 64
	f := randomFactor(rand.New(rand.NewSource(5)), rows, k)
	b.Run("compute", func(b *testing.B) {
		g := linalg.NewSharedGram(k)
		for i := 0; i < b.N; i++ {
			g.Compute(f)
		}
	})
	for _, workers := range []int{1, 2} {
		cfg := Config{K: k, Workers: workers, Implicit: true}
		cfg.setDefaults()
		p := newWorkerPool(cfg)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.grams[0].fresh = false
				p.gramOf(nil, &p.grams[0], f)
			}
		})
		p.close()
	}
}
