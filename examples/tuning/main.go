// tuning: the paper's two variant-selection stories —
//
//  1. empirical selection (Sec. III-D): probe all 8 code variants on the
//     target platform and pick the fastest;
//  2. the future-work learned selector: train a nearest-neighbour model on
//     those empirical winners, then predict the variant for an unseen
//     dataset without probing;
//
// plus the hotspot-guided stage tuning of Sec. V-C.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/tuner"
	"repro/internal/variant"
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

	selector := variant.NewMLSelector(3)
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
			selector.Train(variant.Sample{
				Features: core.FeaturesOf(ds.Matrix, platform, 10),
				Best:     best,
			})
		}
	}

	fmt.Println("\n== learned selection on an unseen dataset (future work) ==")
	unseen := dataset.Netflix.ScaledForBench(0.001).Generate(6)
	for _, platform := range platforms {
		predicted, err := selector.Predict(core.FeaturesOf(unseen.Matrix, platform, 10))
		if err != nil {
			log.Fatal(err)
		}
		actual, _, err := core.SelectVariant(unseen.Matrix, platform, core.Config{K: 10, Lambda: 0.1, Seed: 5})
		if err != nil {
			log.Fatal(err)
		}
		match := "MISS"
		if predicted == actual {
			match = "HIT"
		}
		fmt.Printf("%-4s predicted %-34s empirical %-34s %s\n", platform, predicted, actual, match)
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
