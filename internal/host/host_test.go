package host

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/sparse"
	"repro/internal/variant"
)

func smallDataset(t testing.TB, seed int64) *sparse.Matrix {
	t.Helper()
	return dataset.YahooR4.Scaled(0.02).Generate(seed).Matrix
}

func TestTrainConverges(t *testing.T) {
	mx := smallDataset(t, 1)
	cfg := Config{K: 10, Lambda: 0.1, Iterations: 8, Seed: 5, TrackLoss: true}
	res, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 16 {
		t.Fatalf("history length %d, want 16 half-steps", len(res.History))
	}
	first := res.History[0].Loss
	last := res.History[len(res.History)-1].Loss
	if !(last < first) {
		t.Fatalf("loss did not decrease: %g -> %g", first, last)
	}
	// Training RMSE should be decent after 8 iterations on a planted-signal
	// dataset.
	rmse := res.RMSE(mx.R)
	if math.IsNaN(rmse) || rmse > 1.2 {
		t.Fatalf("training RMSE = %g, want < 1.2", rmse)
	}
}

// TestLossMonotone asserts the core ALS invariant: each exact half-step
// minimizes the quadratic subproblem, so the regularized loss (Eq. 2 with
// matching convention) never increases between half-steps.
func TestLossMonotone(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		mx := smallDataset(t, 2)
		cfg := Config{K: 8, Lambda: 0.2, Iterations: 6, Seed: 3, TrackLoss: true, WeightedLambda: weighted}
		res, err := Train(mx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for i, h := range res.History {
			if h.Loss > prev*(1+1e-6) {
				t.Fatalf("weighted=%v: loss increased at half-step %d: %g -> %g", weighted, i, prev, h.Loss)
			}
			prev = h.Loss
		}
	}
}

// TestVariantsEquivalent is the paper's functional-equivalence requirement:
// every scheduling/kernel variant must produce the same factors (Sec. III-D:
// "each code variant has the same interface, and is functionally equivalent
// to the other variants").
func TestVariantsEquivalent(t *testing.T) {
	mx := smallDataset(t, 3)
	base := Config{K: 10, Lambda: 0.1, Iterations: 2, Seed: 7, Flat: true}
	ref, err := Train(mx, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variant.Extended() {
		cfg := Config{K: 10, Lambda: 0.1, Iterations: 2, Seed: 7, Variant: v}
		got, err := Train(mx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if d := linalg.MaxAbsDiff(ref.X, got.X); d > 2e-3 {
			t.Errorf("%s: X differs from flat baseline by %g", v, d)
		}
		if d := linalg.MaxAbsDiff(ref.Y, got.Y); d > 2e-3 {
			t.Errorf("%s: Y differs from flat baseline by %g", v, d)
		}
	}
}

// TestWorkerCountInvariance: row updates are independent, so results must
// not depend on parallelism or chunking. Flat mode is included because its
// static blocks are broadcast to the pool and must each be processed exactly
// once no matter how the job copies land on workers.
func TestWorkerCountInvariance(t *testing.T) {
	mx := smallDataset(t, 4)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{K: 6, Lambda: 0.1, Iterations: 2, Seed: 9, Flat: true}},
		{"tb+reg+loc", Config{K: 6, Lambda: 0.1, Iterations: 2, Seed: 9,
			Variant: variant.Options{Register: true, Local: true}}},
		{"tb+fus+loc+vec", Config{K: 6, Lambda: 0.1, Iterations: 2, Seed: 9,
			Variant: variant.Options{Fused: true, Local: true, Vector: true}}},
	}
	for _, tc := range cases {
		var ref *Result
		for _, workers := range []int{1, 2, 7, 16, 32} {
			cfg := tc.cfg
			cfg.Workers = workers
			res, err := Train(mx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if d := linalg.MaxAbsDiff(ref.X, res.X); d != 0 {
				t.Fatalf("%s workers=%d: X differs by %g from single-worker run", tc.name, workers, d)
			}
			if d := linalg.MaxAbsDiff(ref.Y, res.Y); d != 0 {
				t.Fatalf("%s workers=%d: Y differs by %g", tc.name, workers, d)
			}
		}
	}
}

// TestLPTOrder: the longest-processing-time permutation must order rows by
// strictly non-increasing degree, break ties by ascending row index, and be
// a valid permutation.
func TestLPTOrder(t *testing.T) {
	coo := sparse.NewCOO(6, 5)
	deg := []int{2, 4, 1, 4, 0, 2} // rows 1,3 tie at 4; rows 0,5 tie at 2
	for u, d := range deg {
		for j := 0; j < d; j++ {
			coo.Append(u, j, float32(u+j+1))
		}
	}
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	order := lptOrder(mx.R)
	want := []int32{1, 3, 0, 5, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("order length %d, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestRowUpdateAllocsZero is the steady-state allocation regression test:
// with a warmed worker scratch, no variant's row update may touch the heap.
func TestRowUpdateAllocsZero(t *testing.T) {
	mx := smallDataset(t, 21)
	check := func(name string, cfg Config) {
		if n := RowUpdateAllocs(mx, cfg); n != 0 {
			t.Errorf("%s: %v allocs per row update, want 0", name, n)
		}
	}
	check("flat", Config{K: 10, Lambda: 0.1, Flat: true})
	for _, v := range variant.Extended() {
		check(v.ID(), Config{K: 10, Lambda: 0.1, Variant: v})
	}
	// The ALS-WR weighted-λ path shares the hot loop; keep it clean too.
	check("tb+fus weighted", Config{K: 10, Lambda: 0.1, WeightedLambda: true,
		Variant: variant.Options{Fused: true}})
	// A traced run adds the stage timers to the row update and nothing else.
	ctx, _ := tracedRoot(t)
	for _, v := range []variant.Options{{}, {Vector: true, Fused: true}} {
		check(v.ID()+" traced", Config{K: 10, Lambda: 0.1, Variant: v, Trace: ctx})
	}
	check("implicit cg traced", Config{K: 10, Lambda: 0.1, Implicit: true, Solver: SolverCG, Trace: ctx})
}

func TestEmptyRowsGetZeroFactors(t *testing.T) {
	coo := sparse.NewCOO(5, 4)
	coo.Append(0, 1, 4)
	coo.Append(2, 3, 5)
	coo.Append(2, 0, 3)
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(mx, Config{K: 4, Lambda: 0.1, Iterations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 3, 4} {
		for _, v := range res.X.Row(u) {
			if v != 0 {
				t.Fatalf("empty user %d got nonzero factor %g", u, v)
			}
		}
	}
	for _, v := range res.Y.Row(2) { // item 2 unrated
		if v != 0 {
			t.Fatalf("empty item 2 got nonzero factor %g", v)
		}
	}
	// Rated cells should still be fit reasonably.
	if p := linalg.Dot(res.X.Row(2), res.Y.Row(3)); math.Abs(p-5) > 2.5 {
		t.Fatalf("prediction (2,3) = %g, want near 5", p)
	}
}

func TestTrainEmptyMatrixRejected(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(mx, Config{}); err == nil {
		t.Fatal("accepted empty matrix")
	}
}

func TestLambdaZeroFallback(t *testing.T) {
	// λ = 0 with omega < k makes the normal matrix singular; the LDL
	// fallback must either solve it or return a descriptive error rather
	// than NaN factors.
	coo := sparse.NewCOO(2, 3)
	coo.Append(0, 0, 4)
	coo.Append(0, 1, 3)
	coo.Append(1, 1, 2)
	coo.Append(1, 2, 5)
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(mx, Config{K: 5, Lambda: 0, Iterations: 1, Seed: 2})
	if err != nil {
		// An explicit ErrNotSPD-derived error is acceptable behaviour.
		return
	}
	for _, v := range res.X.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("λ=0 produced non-finite factors without error")
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}
	cfg.setDefaults()
	if cfg.K != 10 || cfg.Iterations != 5 || cfg.Workers < 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

// TestDefaultChunkDegreeAware: the default chunk must shrink with the mean
// row degree so a claim is roughly constant work, not constant rows. A
// skewed dense side (mean degree 500) must get a far smaller chunk than a
// sparse side of the same row count.
func TestDefaultChunkDegreeAware(t *testing.T) {
	const m, workers = 100000, 4
	sparseChunk := defaultChunk(m, m*5, workers)  // mean degree 5
	denseChunk := defaultChunk(m, m*500, workers) // mean degree 500
	if sparseChunk != 64 {
		t.Fatalf("sparse-side chunk = %d, want 64", sparseChunk)
	}
	if want := chunkRowNNZBudget / 500; denseChunk != want {
		t.Fatalf("dense-side chunk = %d, want %d (budget %d / mean degree 500)",
			denseChunk, want, chunkRowNNZBudget)
	}
	// Extremes: tiny sides and ultra-dense rows still give a sane chunk.
	if c := defaultChunk(10, 100, 8); c < 1 {
		t.Fatalf("tiny side chunk = %d", c)
	}
	if c := defaultChunk(1000, 1000*10000, 2); c != 1 {
		t.Fatalf("ultra-dense chunk = %d, want 1", c)
	}
	// A generated skewed preset end-to-end: the heavy side's heuristic chunk
	// stays within the work budget for its actual mean degree.
	mx := densePreset.Generate(9).Matrix
	meanDeg := (mx.NNZ() + mx.Rows() - 1) / mx.Rows()
	c := defaultChunk(mx.Rows(), mx.NNZ(), 1)
	if c*meanDeg > chunkRowNNZBudget && c > 1 {
		t.Fatalf("preset chunk %d × mean degree %d exceeds budget %d", c, meanDeg, chunkRowNNZBudget)
	}
}

// TestRMSEImprovesWithIterations is the paper's implicit convergence claim:
// more ALS iterations yield a better fit on the training ratings.
func TestRMSEImprovesWithIterations(t *testing.T) {
	mx := smallDataset(t, 6)
	rmse := func(iters int) float64 {
		res, err := Train(mx, Config{K: 10, Lambda: 0.1, Iterations: iters, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res.RMSE(mx.R)
	}
	one, five := rmse(1), rmse(5)
	if !(five < one) {
		t.Fatalf("RMSE did not improve: 1 iter %g vs 5 iters %g", one, five)
	}
}

// densePreset is a generalization-friendly synthetic dataset: ~50 ratings
// per user so held-out cells rarely hit cold users/items. The paper's Table
// I presets keep their true (very sparse) densities; those exercise the
// performance path, this one exercises the learning path.
var densePreset = dataset.Preset{
	Name: "DENSE", Long: "dense synthetic", Users: 400, Items: 300,
	NNZ: 20000, MinVal: 1, MaxVal: 5, UserSkew: 0.6, ItemSkew: 0.6,
}

// TestHeldOutRMSE: the factorization must generalize to held-out ratings on
// the planted-low-rank synthetic data (substantially better than predicting
// the global mean would on a pure-noise matrix).
func TestHeldOutRMSE(t *testing.T) {
	mx := densePreset.Generate(8).Matrix
	train, test, err := dataset.Split(mx, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(train, Config{K: 8, Lambda: 0.1, Iterations: 10, Seed: 4, WeightedLambda: true})
	if err != nil {
		t.Fatal(err)
	}
	testRMSE := res.RMSE(test.R)
	// Baseline: predicting the global training mean for every cell.
	var mean float64
	for _, v := range train.R.Val {
		mean += float64(v)
	}
	mean /= float64(train.NNZ())
	var se float64
	for _, v := range test.R.Val {
		d := float64(v) - mean
		se += d * d
	}
	meanRMSE := math.Sqrt(se / float64(test.NNZ()))
	if math.IsNaN(testRMSE) || testRMSE >= meanRMSE {
		t.Fatalf("held-out RMSE = %g, no better than global-mean baseline %g", testRMSE, meanRMSE)
	}
}

// TestVariantEquivalenceQuick: property form over random variants and seeds.
func TestVariantEquivalenceQuick(t *testing.T) {
	mx := smallDataset(t, 10)
	f := func(reg, loc, vec, fus bool, seedByte uint8) bool {
		seed := int64(seedByte)
		if fus {
			reg = false // fused subsumes the register strip
		}
		a, err := Train(mx, Config{K: 5, Lambda: 0.1, Iterations: 1, Seed: seed,
			Variant: variant.Options{Register: reg, Local: loc, Vector: vec, Fused: fus}})
		if err != nil {
			return false
		}
		b, err := Train(mx, Config{K: 5, Lambda: 0.1, Iterations: 1, Seed: seed, Flat: true})
		if err != nil {
			return false
		}
		return linalg.MaxAbsDiff(a.X, b.X) < 2e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecisionRecallSmoke(t *testing.T) {
	mx := densePreset.Generate(12).Matrix
	train, test, err := dataset.Split(mx, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(train, Config{K: 8, Lambda: 0.1, Iterations: 6, Seed: 6, WeightedLambda: true})
	if err != nil {
		t.Fatal(err)
	}
	p, r := metrics.PrecisionRecallAtN(train.R, test.R, res.X, res.Y, 20, 3.5)
	if math.IsNaN(p) || math.IsNaN(r) {
		t.Fatal("precision/recall NaN on non-empty test set")
	}
	if p < 0 || p > 1 || r < 0 || r > 1 {
		t.Fatalf("precision %g / recall %g out of range", p, r)
	}
}

// TestEarlyStopping: with a tolerance set, training halts once the loss
// plateaus, well before the iteration budget.
func TestEarlyStopping(t *testing.T) {
	mx := smallDataset(t, 15)
	res, err := Train(mx, Config{K: 6, Lambda: 0.1, Iterations: 100, Seed: 2, Tolerance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged == 0 || res.Converged >= 100 {
		t.Fatalf("early stopping did not fire: converged at %d", res.Converged)
	}
	// The early-stopped model should fit about as well as a full run.
	full, err := Train(mx, Config{K: 6, Lambda: 0.1, Iterations: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSE(mx.R) > full.RMSE(mx.R)*1.25 {
		t.Fatalf("early-stopped RMSE %.4f much worse than full %.4f", res.RMSE(mx.R), full.RMSE(mx.R))
	}
}

// TestToleranceZeroRunsAllIterations: without a tolerance the loop runs to
// the iteration budget and Converged stays zero.
func TestToleranceZeroRunsAllIterations(t *testing.T) {
	mx := smallDataset(t, 16)
	res, err := Train(mx, Config{K: 4, Lambda: 0.1, Iterations: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged != 0 {
		t.Fatalf("Converged = %d without tolerance", res.Converged)
	}
}
