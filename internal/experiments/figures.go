package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// Table1 reproduces Table I: the dataset shapes, plus the degree statistics
// that motivate thread batching (not in the paper's table but central to
// its Sec. III-B argument).
func Table1(s Settings) (*Table, error) {
	t := &Table{
		ID: "table1", Title: "Datasets",
		Caption: "Table I: m, n, training Nz for MVLE, NTFX, YMR1, YMR4",
		Header:  []string{"abbr", "m", "n", "Nz", "mean nnz/row", "cov", "warp imbalance"},
	}
	for _, ds := range Datasets(s) {
		st := sparse.RowStats(ds.Matrix.R)
		imb := sparse.WarpImbalance(ds.Matrix.R, 32)
		t.AddRow(ds.Name,
			fmt.Sprint(ds.Matrix.Rows()), fmt.Sprint(ds.Matrix.Cols()), fmt.Sprint(ds.Matrix.NNZ()),
			fmt.Sprintf("%.1f", st.Mean), fmt.Sprintf("%.2f", st.CoV), fmt.Sprintf("%.2f", imb))
	}
	return t, nil
}

// Fig1 reproduces Figure 1: the flat SAC'15 baseline on the 16-core CPU
// (OpenMP) versus the K20c (CUDA). The paper observes the CPU is on average
// 8.4× faster.
func Fig1(s Settings) (*Table, error) {
	t := &Table{
		ID: "fig1", Title: "Baseline ALS: OpenMP (16-core CPU) vs CUDA (K20c)",
		Caption: "Fig. 1: flat baseline runs ~8.4x faster on the CPU than on the GPU",
		Header:  []string{"dataset", "CPU [s]", "GPU [s]", "GPU/CPU"},
	}
	cpu, gpu := device.XeonE52670(), device.K20c()
	var ratioSum float64
	var count int
	for _, ds := range Datasets(s) {
		tc, err := runSeconds(ds, cpu, kernels.Baseline(), s)
		if err != nil {
			return nil, err
		}
		tg, err := runSeconds(ds, gpu, kernels.Baseline(), s)
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.Name, secs(tc), secs(tg), speedup(tg/tc))
		ratioSum += tg / tc
		count++
	}
	t.AddRow("mean", "", "", speedup(ratioSum/float64(count)))
	return t, nil
}

// Fig6 reproduces Figure 6: the incremental optimization ladder (thread
// batching; +local memory; +local memory+register; +vector) on the three
// devices, one sub-table per dataset.
func Fig6(s Settings) ([]*Table, error) {
	var out []*Table
	ladder := variant.Ladder()
	for _, ds := range Datasets(s) {
		t := &Table{
			ID: "fig6", Title: fmt.Sprintf("Optimization ladder on %s", ds.Name),
			Caption: "Fig. 6: GPU gains up to 2.6x from registers+local; local helps CPU/MIC (1.4-1.6x); registers+local together degrade CPU/MIC; vectors help CPU/MIC slightly",
			Header:  []string{"variant", "GPU [s]", "MIC [s]", "CPU [s]"},
		}
		for _, v := range ladder {
			row := []string{v.String()}
			for _, dev := range device.All() {
				sec, err := runSeconds(ds, dev, kernels.FromVariant(v), s)
				if err != nil {
					return nil, err
				}
				row = append(row, secs(sec))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}

// Fig7 reproduces Figure 7: our best per-architecture variant against the
// SAC'15 baseline on the CPU and the GPU and against cuMF (HPDC'16) on the
// GPU. Paper: 5.5× on E5-2670, 21.2× on K20c, 2.2–6.8× over cuMF.
func Fig7(s Settings) (*Table, error) {
	t := &Table{
		ID: "fig7", Title: "Speedup vs state of the art",
		Caption: "Fig. 7: ours vs SAC15 on E5-2670 (5.5x), vs SAC15 on K20c (21.2x), vs HPDC16/cuMF on K20c (2.2-6.8x, largest on YMR4)",
		Header:  []string{"dataset", "vs SAC15 CPU", "vs SAC15 GPU", "vs cuMF GPU"},
	}
	cpu, gpu := device.XeonE52670(), device.K20c()
	var sumC, sumG float64
	var count int
	for _, ds := range Datasets(s) {
		oursCPU, err := runSeconds(ds, cpu, kernels.FromVariant(BestVariant(device.CPU)), s)
		if err != nil {
			return nil, err
		}
		oursGPU, err := runSeconds(ds, gpu, kernels.FromVariant(BestVariant(device.GPU)), s)
		if err != nil {
			return nil, err
		}
		flatCPU, err := runSeconds(ds, cpu, kernels.Baseline(), s)
		if err != nil {
			return nil, err
		}
		flatGPU, err := runSeconds(ds, gpu, kernels.Baseline(), s)
		if err != nil {
			return nil, err
		}
		cumf, err := baseline.EstimateCuMF(ds.Matrix, baseline.CuMFConfig{
			Device: gpu, K: s.K, Lambda: s.Lambda, Iterations: s.Iterations, Seed: s.Seed,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(ds.Name,
			speedup(flatCPU/oursCPU), speedup(flatGPU/oursGPU), speedup(cumf.Seconds()/oursGPU))
		sumC += flatCPU / oursCPU
		sumG += flatGPU / oursGPU
		count++
	}
	t.AddRow("mean", speedup(sumC/float64(count)), speedup(sumG/float64(count)), "")
	return t, nil
}

// Fig8 reproduces Figure 8: the S1/S2/S3 execution-time shares on Netflix/
// K20c at the four tuning stages — flat baseline, thread batching,
// optimizing S1 (registers+local on S1), optimizing S2 (+local on S2).
func Fig8(s Settings) (*Table, error) {
	t := &Table{
		ID: "fig8", Title: "Stage breakdown while tuning (Netflix on K20c)",
		Caption: "Fig. 8: baseline 65/19/16; batching 68/19/13; after S1 opt 32/44/24; after S2 opt 41/32/27 (percent S1/S2/S3)",
		Header:  []string{"stage", "S1 %", "S2 %", "S3 %", "total [s]"},
	}
	gpu := device.K20c()
	var ntfx *sparse.Matrix
	for _, ds := range Datasets(s) {
		if ds.Name == "NTFX" {
			ntfx = ds.Matrix
		}
	}
	steps := []struct {
		name string
		spec kernels.Spec
	}{
		{"(a) baseline", kernels.Baseline()},
		{"(b) thread batching", kernels.Spec{S3Gauss: true}},
		{"(c) optimizing S1", kernels.Spec{S1Register: true, S1Local: true, S3Gauss: true}},
		{"(d) optimizing S2", kernels.Spec{S1Register: true, S1Local: true, S2Local: true, S3Gauss: true}},
		{"(e) + Cholesky S3", kernels.Spec{S1Register: true, S1Local: true, S2Local: true}},
	}
	for _, st := range steps {
		res, err := kernels.Estimate(ntfx, kernelConfig(gpu, st.spec, s))
		if err != nil {
			return nil, err
		}
		sh := res.Report.StageShare()
		t.AddRow(st.name,
			fmt.Sprintf("%.1f", sh[0]*100), fmt.Sprintf("%.1f", sh[1]*100), fmt.Sprintf("%.1f", sh[2]*100),
			secs(res.Seconds()))
	}
	return t, nil
}

// Fig9 reproduces Figure 9: the best per-architecture variant across the
// three devices, reported as slowdown relative to the fastest. Paper: CPU
// fastest overall, GPU ~1.5× slower, MIC ~4.1× slower; GPU wins on YMR1.
func Fig9(s Settings) (*Table, error) {
	t := &Table{
		ID: "fig9", Title: "Cross-platform comparison (best variant each)",
		Caption: "Fig. 9: CPU best, GPU 1.5x slower, MIC 4.1x slower on average; GPU outperforms CPU on YMR1",
		Header:  []string{"dataset", "GPU [s]", "MIC [s]", "CPU [s]", "GPU/CPU", "MIC/CPU"},
	}
	var sumG, sumM float64
	var count int
	for _, ds := range Datasets(s) {
		times := map[device.Kind]float64{}
		for _, dev := range device.All() {
			sec, err := runSeconds(ds, dev, kernels.FromVariant(BestVariant(dev.Kind)), s)
			if err != nil {
				return nil, err
			}
			times[dev.Kind] = sec
		}
		t.AddRow(ds.Name,
			secs(times[device.GPU]), secs(times[device.MIC]), secs(times[device.CPU]),
			speedup(times[device.GPU]/times[device.CPU]), speedup(times[device.MIC]/times[device.CPU]))
		sumG += times[device.GPU] / times[device.CPU]
		sumM += times[device.MIC] / times[device.CPU]
		count++
	}
	t.AddRow("mean", "", "", "", speedup(sumG/float64(count)), speedup(sumM/float64(count)))
	return t, nil
}

// Fig10 reproduces Figure 10: execution time across work-group sizes
// {8, 16, 32, 64, 128} on the three devices, one sub-table per dataset.
// Paper: the GPU minimum sits at 16/32 for k=10; 8 under-fills warps and
// 64+ leaves idle warps; CPU prefers smaller groups; MIC is
// dataset-dependent.
func Fig10(s Settings) ([]*Table, error) {
	sizes := []int{8, 16, 32, 64, 128}
	var out []*Table
	for _, ds := range Datasets(s) {
		t := &Table{
			ID: "fig10", Title: fmt.Sprintf("Thread-block sweep on %s", ds.Name),
			Caption: "Fig. 10: GPU best at 16/32 (k=10), worse at 8 and 64+; CPU flat/smaller-is-better; MIC optimum varies by dataset",
			Header:  []string{"group size", "GPU [s]", "MIC [s]", "CPU [s]"},
		}
		for _, ws := range sizes {
			row := []string{fmt.Sprint(ws)}
			for _, dev := range device.All() {
				cfg := s
				cfg.GroupSize = ws
				sec, err := runSeconds(ds, dev, kernels.FromVariant(BestVariant(dev.Kind)), cfg)
				if err != nil {
					return nil, err
				}
				row = append(row, secs(sec))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out, nil
}
