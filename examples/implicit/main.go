// implicit: the implicit-feedback extension the paper's introduction cites
// as a key ALS advantage. Ratings become observation strengths (play
// counts / watch events); the model learns preferences with confidence
// weighting and is compared against plain explicit ALS and the SGD and
// CCD++ alternatives on the same data.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/solvers"
)

func main() {
	ds := dataset.YahooR4.ScaledForBench(0.3).Generate(77)
	mx := ds.Matrix
	fmt.Printf("dataset %s: %d x %d, %d observations\n\n", ds.Name, mx.Rows(), mx.Cols(), mx.NNZ())

	// --- implicit ALS: what alstrain -implicit trains ---
	start := time.Now()
	pref, _, err := core.Train(mx, core.Config{
		K: 10, Lambda: 0.1, Alpha: 20, Iterations: 8, Seed: 1, Implicit: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("implicit ALS trained in %.3fs\n", time.Since(start).Seconds())

	// Observed pairs should score near 1, unobserved near 0.
	var obs, unobs float64
	var nObs, nUnobs int
	for u := 0; u < mx.Rows(); u++ {
		cols, _ := mx.R.Row(u)
		for _, c := range cols {
			obs += pref.Predict(u, int(c))
			nObs++
		}
	}
	for u := 0; u < mx.Rows(); u += 3 {
		for i := 0; i < mx.Cols(); i += 17 {
			if mx.R.At(u, i) == 0 {
				unobs += pref.Predict(u, i)
				nUnobs++
			}
		}
	}
	fmt.Printf("mean preference: observed %.3f vs unobserved %.3f\n\n",
		obs/float64(nObs), unobs/float64(nUnobs))

	// --- solver comparison on explicit ratings ---
	train, test, err := dataset.Split(mx, 0.15, 2)
	if err != nil {
		log.Fatal(err)
	}
	report := func(name string, xm, ym *linalg.Dense, secs float64) {
		fmt.Printf("%-14s %8.3fs  train RMSE %.4f  test RMSE %.4f\n",
			name, secs, metrics.RMSE(train.R, xm, ym), metrics.RMSE(test.R, xm, ym))
	}

	start = time.Now()
	model, _, err := core.Train(train, core.Config{K: 10, Lambda: 0.1, Iterations: 10, Seed: 3,
		UseRecommended: true, WeightedLambda: true})
	if err != nil {
		log.Fatal(err)
	}
	report("ALS (ours)", model.X, model.Y, time.Since(start).Seconds())

	start = time.Now()
	sx, sy, err := solvers.TrainSGD(train, solvers.SGDConfig{K: 10, Lambda: 0.05, Epochs: 30, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	report("Hogwild SGD", sx, sy, time.Since(start).Seconds())

	start = time.Now()
	cx, cy, err := solvers.TrainCCD(train, solvers.CCDConfig{K: 10, Lambda: 2, Iterations: 10, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	report("CCD++", cx, cy, time.Since(start).Seconds())
}
