package experiments

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/kernels"
)

// MultiGPU is an extension experiment: data-parallel scaling across 1/2/4
// simulated K20c devices, the multi-GPU capability the paper's related work
// credits cuMF with. It reports compute speedup and the end-to-end speedup
// after the serialized PCIe broadcasts/gathers — showing where
// communication erases the gain (small datasets, the same effect behind
// cuMF's poor YMR4 result in Fig. 7).
func MultiGPU(s Settings) (*Table, error) {
	t := &Table{
		ID: "multigpu", Title: "Data-parallel scaling across K20c devices",
		Caption: "extension (cuMF's multi-GPU scheme): compute scales near-linearly; serialized PCIe transfers bound end-to-end gains",
		Header:  []string{"dataset", "1 GPU [s]", "2 GPUs [s]", "4 GPUs [s]", "4-GPU compute speedup", "4-GPU total speedup"},
	}
	for _, ds := range Datasets(s) {
		var totals [3]float64
		var compute [3]float64
		for i, n := range []int{1, 2, 4} {
			devs := make([]*device.Device, n)
			for j := range devs {
				devs[j] = device.K20c()
			}
			res, err := kernels.EstimateMulti(ds.Matrix,
				kernelConfig(devs[0], kernels.FromVariant(BestVariant(device.GPU)), s), devs)
			if err != nil {
				return nil, fmt.Errorf("%s on %d GPUs: %w", ds.Name, n, err)
			}
			totals[i] = res.Seconds()
			compute[i] = res.ComputeSeconds
		}
		t.AddRow(ds.Name, secs(totals[0]), secs(totals[1]), secs(totals[2]),
			speedup(compute[0]/compute[2]), speedup(totals[0]/totals[2]))
	}
	return t, nil
}
