package solvers

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/dataset"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/sparse"
)

var densePreset = dataset.Preset{
	Name: "DENSE", Long: "dense synthetic", Users: 300, Items: 200,
	NNZ: 12000, MinVal: 1, MaxVal: 5, UserSkew: 0.6, ItemSkew: 0.6,
}

func denseMatrix(t testing.TB, seed int64) *sparse.Matrix {
	t.Helper()
	return densePreset.Generate(seed).Matrix
}

// serialUnderRace pins GOMAXPROCS to 1 for a test that reaches TrainSGD's
// default worker count in a -race binary: Hogwild's lock-free factor updates
// are data races by design, and a single worker has nobody to race with.
// Ordinary builds run the test unchanged.
func serialUnderRace(t *testing.T) {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			prev := runtime.GOMAXPROCS(1)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		}
	}
}

func TestSGDConverges(t *testing.T) {
	serialUnderRace(t)
	mx := denseMatrix(t, 1)
	x, y, err := TrainSGD(mx, SGDConfig{K: 8, Lambda: 0.02, Epochs: 30, Seed: 2, LearnRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rmse := metrics.RMSE(mx.R, x, y)
	if math.IsNaN(rmse) || rmse > 0.8 {
		t.Fatalf("SGD training RMSE = %g, want < 0.8", rmse)
	}
}

func TestSGDClipPreventsBlowup(t *testing.T) {
	serialUnderRace(t)
	mx := denseMatrix(t, 2)
	// A deliberately hot learning rate: without clipping this can diverge;
	// with clipping the factors must stay finite.
	x, y, err := TrainSGD(mx, SGDConfig{K: 8, Lambda: 0.02, Epochs: 10, Seed: 3,
		LearnRate: 0.15, ClipWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("SGD factors not finite")
		}
	}
	_ = y
}

func TestSGDEpochsImprove(t *testing.T) {
	mx := denseMatrix(t, 3)
	rmse := func(epochs int) float64 {
		x, y, err := TrainSGD(mx, SGDConfig{K: 8, Lambda: 0.02, Epochs: epochs, Seed: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.RMSE(mx.R, x, y)
	}
	if r30, r2 := rmse(30), rmse(2); !(r30 < r2) {
		t.Fatalf("SGD did not improve with epochs: 2ep %g vs 30ep %g", r2, r30)
	}
}

func TestCCDConverges(t *testing.T) {
	mx := denseMatrix(t, 5)
	x, y, err := TrainCCD(mx, CCDConfig{K: 8, Lambda: 0.1, Iterations: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rmse := metrics.RMSE(mx.R, x, y)
	if math.IsNaN(rmse) || rmse > 0.8 {
		t.Fatalf("CCD training RMSE = %g, want < 0.8", rmse)
	}
}

// TestCCDMatchesALSQuality: CCD++ minimizes the same objective; its fit
// should be in the same ballpark as ALS on the same data.
func TestCCDMatchesALSQuality(t *testing.T) {
	mx := denseMatrix(t, 7)
	als, err := host.Train(mx, host.Config{K: 8, Lambda: 0.1, Iterations: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := TrainCCD(mx, CCDConfig{K: 8, Lambda: 0.1, Iterations: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	alsRMSE := als.RMSE(mx.R)
	ccdRMSE := metrics.RMSE(mx.R, x, y)
	if ccdRMSE > alsRMSE*1.5+0.1 {
		t.Fatalf("CCD RMSE %g much worse than ALS %g", ccdRMSE, alsRMSE)
	}
}

func TestCCDWorkerInvariance(t *testing.T) {
	mx := denseMatrix(t, 9)
	run := func(workers int) []float32 {
		x, _, err := TrainCCD(mx, CCDConfig{K: 6, Lambda: 0.1, Iterations: 3, Seed: 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return x.Data
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("CCD factors differ across worker counts at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestImplicitConverges(t *testing.T) {
	mx := denseMatrix(t, 11)
	x, y, err := TrainImplicit(mx, ImplicitConfig{K: 8, Lambda: 0.1, Alpha: 10, Iterations: 6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Implicit models predict preference ≈ 1 on observed pairs.
	var obs, unobs float64
	var nObs, nUnobs int
	r := mx.R
	for u := 0; u < r.NumRows && nUnobs < 2000; u++ {
		cols, _ := r.Row(u)
		rated := map[int]bool{}
		for _, c := range cols {
			rated[int(c)] = true
			obs += PreferenceScore(x, y, u, int(c))
			nObs++
		}
		for i := 0; i < mx.Cols() && nUnobs < 2000; i += 7 {
			if !rated[i] {
				unobs += PreferenceScore(x, y, u, i)
				nUnobs++
			}
		}
	}
	obsMean := obs / float64(nObs)
	unobsMean := unobs / float64(nUnobs)
	if !(obsMean > unobsMean+0.2) {
		t.Fatalf("implicit model does not separate observed (%.3f) from unobserved (%.3f)", obsMean, unobsMean)
	}
	if obsMean < 0.5 || obsMean > 1.3 {
		t.Fatalf("observed preference mean %.3f far from 1", obsMean)
	}
}

// TestImplicitReferenceLossConverges pins the reference loop's convergence:
// each exact ALS sweep minimizes the Hu et al. objective over one factor
// with the other fixed, so the implicit loss must be non-increasing across
// iteration counts and strictly lower after several sweeps than after one.
func TestImplicitReferenceLossConverges(t *testing.T) {
	mx := denseMatrix(t, 15)
	cfg := ImplicitConfig{K: 8, Lambda: 0.1, Alpha: 10, Seed: 16, Workers: 1}
	var prev float64 = math.Inf(1)
	var first, last float64
	for _, iters := range []int{1, 2, 4, 6} {
		c := cfg
		c.Iterations = iters
		x, y, err := TrainImplicit(mx, c)
		if err != nil {
			t.Fatal(err)
		}
		loss := metrics.ImplicitLoss(mx.R, x, y, float64(c.Alpha), float64(c.Lambda))
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("implicit loss after %d iterations is %g", iters, loss)
		}
		// Identical seeds make run i a strict prefix of run i+1, so the
		// loss sequence is the trajectory of one run sampled at 1,2,4,6.
		if loss > prev*(1+1e-9) {
			t.Fatalf("implicit loss rose from %g to %g at %d iterations", prev, loss, iters)
		}
		prev = loss
		if iters == 1 {
			first = loss
		}
		last = loss
	}
	if !(last < first*0.999) {
		t.Fatalf("implicit loss did not meaningfully converge: %g after 1 iter, %g after 6", first, last)
	}
}

func TestImplicitEmptyRejected(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	empty, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TrainImplicit(empty, ImplicitConfig{}); err == nil {
		t.Fatal("accepted empty matrix")
	}
	if _, _, err := TrainSGD(empty, SGDConfig{}); err == nil {
		t.Fatal("accepted empty matrix")
	}
	if _, _, err := TrainCCD(empty, CCDConfig{}); err == nil {
		t.Fatal("accepted empty matrix")
	}
}

func TestImplicitWorkerInvariance(t *testing.T) {
	mx := denseMatrix(t, 13)
	run := func(workers int) []float32 {
		x, _, err := TrainImplicit(mx, ImplicitConfig{K: 6, Lambda: 0.1, Alpha: 5, Iterations: 2, Seed: 14, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return x.Data
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("implicit factors differ across worker counts at %d", i)
		}
	}
}

func TestImplicitRNGDeterministic(t *testing.T) {
	if implicitRNG(5).Int63() != implicitRNG(5).Int63() {
		t.Fatal("rng helper not deterministic")
	}
}
