// tuning: the paper's empirical variant selection (Sec. III-D) — probe all
// 8 code variants on the target platform and pick the fastest, as
// alstrain -auto-variant does — plus the hotspot-guided stage tuning of
// Sec. V-C.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/tuner"
)

func main() {
	platforms := []string{"GPU", "MIC", "CPU"}
	trainSets := []struct {
		preset dataset.Preset
		scale  float64
	}{
		{dataset.Movielens, 0.004},
		{dataset.YahooR4, 0.3},
	}

	fmt.Println("== empirical variant selection (Sec. III-D) ==")
	for _, ts := range trainSets {
		ds := ts.preset.ScaledForBench(ts.scale).Generate(5)
		for _, platform := range platforms {
			best, ms, err := core.SelectVariant(ds.Matrix, platform, core.Config{K: 10, Lambda: 0.1, Seed: 5})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-5s %-4s best: %-34s (%.4fs; slowest %s at %.4fs)\n",
				ds.Name, platform, best, ms[0].Seconds, ms[len(ms)-1].Variant.ID(), ms[len(ms)-1].Seconds)
		}
	}

	fmt.Println("\n== hotspot-guided tuning on Netflix/K20c (Sec. V-C, Fig. 8) ==")
	ntfx := dataset.Netflix.ScaledForBench(0.002).Generate(7)
	steps, final, err := tuner.Tune(ntfx.Matrix, kernels.Config{
		Device: device.K20c(), K: 10, Iterations: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range steps {
		fmt.Println("  " + st.String())
	}
	fmt.Printf("final kernel: %s\n", final.Name())
}
