// multigpu: data-parallel ALS across several simulated K20c devices — the
// multi-GPU scheme the paper's related work credits cuMF with. Rows are
// sharded per update; the fixed factor is broadcast over PCIe each
// half-iteration. Compute scales with the device count; the serialized
// transfers set the ceiling.
package main

import (
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/variant"
)

func main() {
	ds := dataset.Netflix.ScaledForBench(0.002).Generate(55)
	mx := ds.Matrix
	fmt.Printf("dataset %s: %d x %d, %d ratings\n\n", ds.Name, mx.Rows(), mx.Cols(), mx.NNZ())

	cfg := kernels.Config{
		Device: device.K20c(),
		Spec:   kernels.FromVariant(variant.Options{Local: true, Register: true}),
		K:      10, Iterations: 5,
	}
	var base float64
	fmt.Println("devices  compute[s]  transfer[s]  total[s]  speedup  efficiency")
	for _, n := range []int{1, 2, 4, 8} {
		devs := make([]*device.Device, n)
		for i := range devs {
			devs[i] = device.K20c()
		}
		res, err := kernels.EstimateMulti(mx, cfg, devs)
		if err != nil {
			log.Fatal(err)
		}
		if n == 1 {
			base = res.Seconds()
		}
		sp := base / res.Seconds()
		fmt.Printf("%-7d  %.4f      %.4f       %.4f    %.2fx    %.0f%%\n",
			n, res.ComputeSeconds, res.TransferSeconds, res.Seconds(), sp, sp/float64(n)*100)
	}
	fmt.Println("\n(row updates are independent, so sharding moves compute, never a factor.)")
}
