package experiments

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/device"
	"repro/internal/kernels"
)

// These tests pin the calibration of the device cost model to the paper's
// headline ratios. They use generous bands: the claim is that each
// comparison lands on the right side with roughly the right magnitude, not
// that the simulator predicts absolute seconds. If a model change moves a
// ratio out of band, the calibration constants in internal/device and
// internal/kernels/cost.go need revisiting.

// calSettings shrinks iteration count (ratios are iteration-invariant) to
// keep the test fast; datasets stay at the default bench scale.
func calSettings() Settings {
	s := Defaults()
	s.Iterations = 2
	return s
}

func geoMeanRatios(t *testing.T, f func(ds int) (num, den float64)) float64 {
	t.Helper()
	prod := 1.0
	n := 0
	for i := 0; i < 4; i++ {
		num, den := f(i)
		if den <= 0 || num <= 0 {
			t.Fatalf("non-positive time: %g/%g", num, den)
		}
		prod *= num / den
		n++
	}
	// Geometric mean over the four datasets.
	return math.Pow(prod, 1/float64(n))
}

func TestCalibrationFig1BaselineGPUSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	s := calSettings()
	cpu, gpu := device.XeonE52670(), device.K20c()
	dss := Datasets(s)
	mean := geoMeanRatios(t, func(i int) (float64, float64) {
		tg, err := runSeconds(dss[i], gpu, kernels.Baseline(), s)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := runSeconds(dss[i], cpu, kernels.Baseline(), s)
		if err != nil {
			t.Fatal(err)
		}
		return tg, tc
	})
	// Paper: 8.4x on average. Band [4, 16].
	if mean < 4 || mean > 16 {
		t.Fatalf("flat GPU/CPU geomean = %.1fx, want within [4,16] around the paper's 8.4x", mean)
	}
}

func TestCalibrationFig7Speedups(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	s := calSettings()
	cpu, gpu := device.XeonE52670(), device.K20c()
	dss := Datasets(s)

	cpuSpeedup := geoMeanRatios(t, func(i int) (float64, float64) {
		flat, err := runSeconds(dss[i], cpu, kernels.Baseline(), s)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := runSeconds(dss[i], cpu, kernels.FromVariant(BestVariant(device.CPU)), s)
		if err != nil {
			t.Fatal(err)
		}
		return flat, ours
	})
	// Paper: 5.5x on the E5-2670. Band [3, 9].
	if cpuSpeedup < 3 || cpuSpeedup > 9 {
		t.Fatalf("CPU speedup over SAC15 = %.1fx, want [3,9] around 5.5x", cpuSpeedup)
	}

	gpuSpeedup := geoMeanRatios(t, func(i int) (float64, float64) {
		flat, err := runSeconds(dss[i], gpu, kernels.Baseline(), s)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := runSeconds(dss[i], gpu, kernels.FromVariant(BestVariant(device.GPU)), s)
		if err != nil {
			t.Fatal(err)
		}
		return flat, ours
	})
	// Paper: 21.2x on the K20c. Band [10, 40].
	if gpuSpeedup < 10 || gpuSpeedup > 40 {
		t.Fatalf("GPU speedup over SAC15 = %.1fx, want [10,40] around 21.2x", gpuSpeedup)
	}
}

func TestCalibrationCuMF(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	s := calSettings()
	gpu := device.K20c()
	dss := Datasets(s)
	var worst, best float64 = 1e9, 0
	var bestName string
	for _, ds := range dss {
		ours, err := runSeconds(ds, gpu, kernels.FromVariant(BestVariant(device.GPU)), s)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := baseline.EstimateCuMF(ds.Matrix, baseline.CuMFConfig{
			Device: gpu, K: s.K, Iterations: s.Iterations,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := cm.Seconds() / ours
		if r < worst {
			worst = r
		}
		if r > best {
			best = r
			bestName = ds.Name
		}
	}
	// Paper: 2.2x–6.8x, the largest on YMR4. Bands [1.3, 10].
	if worst < 1.3 {
		t.Fatalf("cuMF speedup lower bound %.1fx < 1.3x (paper: 2.2x)", worst)
	}
	if best > 10 {
		t.Fatalf("cuMF speedup upper bound %.1fx > 10x (paper: 6.8x)", best)
	}
	if bestName != "YMR4" {
		t.Errorf("largest cuMF speedup on %s, paper finds it on YMR4", bestName)
	}
}

func TestCalibrationFig9PlatformOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	s := calSettings()
	dss := Datasets(s)
	var gpuOverCPU, micOverCPU float64
	for _, ds := range dss {
		times := map[device.Kind]float64{}
		for _, dev := range device.All() {
			sec, err := runSeconds(ds, dev, kernels.FromVariant(BestVariant(dev.Kind)), s)
			if err != nil {
				t.Fatal(err)
			}
			times[dev.Kind] = sec
		}
		if times[device.CPU] >= times[device.MIC] {
			t.Errorf("%s: CPU (%.4fs) not faster than MIC (%.4fs)", ds.Name, times[device.CPU], times[device.MIC])
		}
		gpuOverCPU += times[device.GPU] / times[device.CPU] / 4
		micOverCPU += times[device.MIC] / times[device.CPU] / 4
	}
	// Paper: GPU 1.5x slower (its own figures imply ~2.2x), MIC 4.1x slower.
	if gpuOverCPU < 1.2 || gpuOverCPU > 3.5 {
		t.Errorf("GPU/CPU mean = %.1fx, want [1.2,3.5] around the paper's 1.5-2.2x", gpuOverCPU)
	}
	if micOverCPU < 2.5 || micOverCPU > 6 {
		t.Errorf("MIC/CPU mean = %.1fx, want [2.5,6] around the paper's 4.1x", micOverCPU)
	}
}

func TestCalibrationFig6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	s := calSettings()
	dss := Datasets(s)
	type point struct{ tb, loc, locReg, vec float64 }
	get := func(dev *device.Device, ds int) point {
		var p point
		for i, spec := range []kernels.Spec{
			{}, {S1Local: true, S2Local: true},
			{S1Local: true, S2Local: true, S1Register: true},
			{S1Local: true, S2Local: true, S1Register: true, Vector: true},
		} {
			sec, err := runSeconds(dss[ds], dev, spec, s)
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
				p.tb = sec
			case 1:
				p.loc = sec
			case 2:
				p.locReg = sec
			case 3:
				p.vec = sec
			}
		}
		return p
	}
	for i, ds := range dss {
		// GPU: local helps, registers help further, vectors change little.
		g := get(device.K20c(), i)
		if !(g.loc < g.tb) || !(g.locReg < g.loc) {
			t.Errorf("%s GPU ladder not monotone: tb=%.4f loc=%.4f loc+reg=%.4f", ds.Name, g.tb, g.loc, g.locReg)
		}
		if rel := g.vec / g.locReg; rel < 0.9 || rel > 1.1 {
			t.Errorf("%s GPU vectors changed time by %.0f%%, paper: very little", ds.Name, (rel-1)*100)
		}
		if total := g.tb / g.locReg; total < 1.5 || total > 4 {
			t.Errorf("%s GPU total opt gain %.1fx, want [1.5,4] around paper's up-to-2.6x", ds.Name, total)
		}
		// CPU and MIC: local helps; registers+local degrade; vectors help.
		for _, dev := range []*device.Device{device.XeonE52670(), device.XeonPhi31SP()} {
			c := get(dev, i)
			boost := c.tb / c.loc
			if boost < 1.1 || boost > 2.2 {
				t.Errorf("%s %s local boost %.2fx, want [1.1,2.2] around paper's 1.4-1.6x", ds.Name, dev.Kind, boost)
			}
			if !(c.locReg > c.loc) {
				t.Errorf("%s %s: registers+local did not degrade (%.4f vs %.4f)", ds.Name, dev.Kind, c.locReg, c.loc)
			}
			if !(c.vec < c.locReg) {
				t.Errorf("%s %s: explicit vectors did not help (%.4f vs %.4f)", ds.Name, dev.Kind, c.vec, c.locReg)
			}
		}
	}
}

func TestCalibrationFig10BlockSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs are slow")
	}
	s := calSettings()
	dss := Datasets(s)
	gpu := device.K20c()
	spec := kernels.FromVariant(BestVariant(device.GPU))
	// On the GPU with k=10: 16/32 near-optimal, 8 worse, 128 worse.
	for i, ds := range dss {
		times := map[int]float64{}
		for _, ws := range []int{8, 16, 32, 128} {
			cfg := s
			cfg.GroupSize = ws
			sec, err := runSeconds(dss[i], gpu, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			times[ws] = sec
		}
		if !(times[8] > times[16]) {
			t.Errorf("%s GPU: block 8 (%.4f) not slower than 16 (%.4f)", ds.Name, times[8], times[16])
		}
		if !(times[128] > times[32]) {
			t.Errorf("%s GPU: block 128 (%.4f) not slower than 32 (%.4f)", ds.Name, times[128], times[32])
		}
		if rel := times[16] / times[32]; rel < 0.85 || rel > 1.15 {
			t.Errorf("%s GPU: 16 vs 32 differ by %.0f%%, paper: comparable", ds.Name, (rel-1)*100)
		}
	}
}
