// crossplatform: the paper's portability claim in action — the same ALS
// model trains on the host and on all three simulated OpenCL platforms
// (K20c GPU, Xeon Phi MIC, Xeon E5 CPU), producing identical factors while
// the modeled execution time reflects each architecture.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/linalg"
)

func main() {
	ds := dataset.YahooR4.ScaledForBench(0.3).Generate(99)
	mx := ds.Matrix
	fmt.Printf("dataset %s: %d x %d, %d ratings\n\n", ds.Name, mx.Rows(), mx.Cols(), mx.NNZ())

	cfg := core.Config{K: 10, Lambda: 0.1, Iterations: 5, Seed: 6, UseRecommended: true}

	ref, hostInfo, err := core.Train(mx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-38s %10.4fs (wall-clock)  RMSE %.4f\n",
		"host", hostInfo.Variant, hostInfo.Seconds, ref.RMSE(mx.R))

	for _, platform := range []string{"GPU", "MIC", "CPU"} {
		c := cfg
		c.Platform = platform
		model, info, err := core.Train(mx, c)
		if err != nil {
			log.Fatal(err)
		}
		drift := linalg.MaxAbsDiff(ref.X, model.X)
		fmt.Printf("%-6s %-38s %10.4fs (simulated)   RMSE %.4f  max factor drift vs host %.2g\n",
			platform, info.Variant, info.Seconds, model.RMSE(mx.R), drift)
		fmt.Printf("       stages: S1 %.4fs  S2 %.4fs  S3 %.4fs\n",
			info.StageSeconds[0], info.StageSeconds[1], info.StageSeconds[2])
	}

	fmt.Println("\nthe flat SAC'15 baseline on the same GPU, for contrast:")
	// Only the clock is read, so the simulator's cost pass is enough.
	flat, err := kernels.Estimate(mx, kernels.Config{
		Device: device.K20c(), Spec: kernels.Baseline(),
		K: cfg.K, Lambda: cfg.Lambda, Iterations: cfg.Iterations, Seed: cfg.Seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-38s %10.4fs (simulated)\n", "GPU", kernels.Baseline().Name(), flat.Seconds())
}
