package kernels

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/variant"
)

func testMatrix(t testing.TB) *sparse.Matrix {
	t.Helper()
	return dataset.YahooR4.ScaledForBench(0.05).Generate(11).Matrix
}

// longRowMatrix keeps per-row nonzero counts near the real datasets' so
// stage-share assertions see the paper's regime (ω ≈ 60 vs Netflix's 206,
// rather than the ~15 of the tiny default test matrix).
func longRowMatrix(t testing.TB) *sparse.Matrix {
	t.Helper()
	return dataset.Netflix.ScaledForBench(0.002).Generate(13).Matrix
}

// TestSimDeterministic: identical configs give identical simulated times.
func TestSimDeterministic(t *testing.T) {
	mx := testMatrix(t)
	cfg := Config{Device: device.K20c(), Spec: FromVariant(variant.Options{Local: true, Register: true}),
		K: 10, Iterations: 1}
	a, err := Estimate(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, err := Estimate(mx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Report.MakespanCycles != b.Report.MakespanCycles {
			t.Fatalf("run %d: makespan %.0f != %.0f", i, b.Report.MakespanCycles, a.Report.MakespanCycles)
		}
		for s := 0; s < 3; s++ {
			if a.Report.StageCycles[s] != b.Report.StageCycles[s] {
				t.Fatalf("run %d: stage %d cycles differ", i, s)
			}
		}
	}
}

func TestSpecNames(t *testing.T) {
	if Baseline().Name() != "flat baseline" {
		t.Fatalf("Baseline name = %q", Baseline().Name())
	}
	s := FromVariant(variant.Options{Local: true, Register: true})
	if s.Name() != "thread batching+local memory+register" {
		t.Fatalf("spec name = %q", s.Name())
	}
	g := Spec{S3Gauss: true}
	if g.Name() != "thread batching (gauss S3)" {
		t.Fatalf("gauss spec name = %q", g.Name())
	}
}

func TestEstimateRejectsEmptyAndNilDevice(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	empty, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Estimate(empty, Config{Device: device.K20c()}); err == nil {
		t.Fatal("accepted empty matrix")
	}
	mx := testMatrix(t)
	if _, err := Estimate(mx, Config{}); err == nil {
		t.Fatal("accepted nil device")
	}
}

// TestStageDominance: with the paper's defaults, S1 dominates the
// un-optimized thread-batched run (the premise of the hotspot-guided tuning
// in Sec. V-C).
func TestStageDominance(t *testing.T) {
	mx := longRowMatrix(t)
	res, err := Estimate(mx, Config{Device: device.K20c(), Spec: Spec{},
		K: 10, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := res.Report.StageShare()
	if !(sh[0] > sh[1] && sh[0] > sh[2]) {
		t.Fatalf("S1 share %.2f not dominant (S2 %.2f, S3 %.2f)", sh[0], sh[1], sh[2])
	}
	if sh[0] < 0.5 {
		t.Fatalf("S1 share %.2f, paper reports ~65-70%%", sh[0])
	}
}

// TestOptimizationShiftsHotspot: optimizing S1 must shift the dominant
// stage toward S2 (Fig. 8 b→c transition).
func TestOptimizationShiftsHotspot(t *testing.T) {
	mx := longRowMatrix(t)
	before, err := Estimate(mx, Config{Device: device.K20c(), Spec: Spec{S3Gauss: true},
		K: 10, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Estimate(mx, Config{Device: device.K20c(),
		Spec: Spec{S1Local: true, S1Register: true, S3Gauss: true},
		K:    10, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb, sa := before.Report.StageShare(), after.Report.StageShare()
	if !(sa[0] < sb[0]) {
		t.Fatalf("S1 share did not drop after optimizing S1: %.2f -> %.2f", sb[0], sa[0])
	}
	if !(sa[1] > sb[1]) {
		t.Fatalf("S2 share did not rise after optimizing S1: %.2f -> %.2f", sb[1], sa[1])
	}
}

// TestGroupSizeSweepGPU: block-size behaviour on the GPU at k=10
// (Fig. 10): 8 is slower than 16/32; 128 is slower than 32.
func TestGroupSizeSweepGPU(t *testing.T) {
	mx := testMatrix(t)
	times := map[int]float64{}
	for _, ws := range []int{8, 16, 32, 128} {
		res, err := Estimate(mx, Config{Device: device.K20c(),
			Spec: FromVariant(variant.Options{Local: true, Register: true}),
			K:    10, Iterations: 1, GroupSize: ws})
		if err != nil {
			t.Fatal(err)
		}
		times[ws] = res.Seconds()
	}
	if !(times[8] > times[16] && times[8] > times[32]) {
		t.Fatalf("block 8 (%.5f) not slower than 16 (%.5f)/32 (%.5f)", times[8], times[16], times[32])
	}
	if !(times[128] > times[32]) {
		t.Fatalf("block 128 (%.5f) not slower than 32 (%.5f)", times[128], times[32])
	}
}

// TestTransferChargedOnAccelerators: PCIe placement shows up on GPU/MIC and
// not on the host-resident CPU.
func TestTransferChargedOnAccelerators(t *testing.T) {
	mx := testMatrix(t)
	for _, dev := range device.All() {
		res, err := Estimate(mx, Config{Device: dev, K: 10, Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		if dev.Kind == device.CPU && res.TransferSeconds != 0 {
			t.Errorf("CPU charged transfer %.6fs", res.TransferSeconds)
		}
		if dev.Kind != device.CPU && res.TransferSeconds <= 0 {
			t.Errorf("%s charged no transfer", dev.Kind)
		}
	}
}

// TestEmptyRowsCostNothing: rows with no ratings are skipped by the kernel
// (Algorithm 2's omegaSize guard) and charge no stage cycles.
func TestEmptyRowsCostNothing(t *testing.T) {
	coo := sparse.NewCOO(100, 10)
	coo.Append(0, 1, 3) // a single rated row
	coo.Append(0, 2, 4)
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Device: device.K20c(), K: 4}
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	rep := sideCost(mx.R, mx.Cols(), cfg)
	// One active row: the report must reflect exactly one row's overhead.
	single := rep.StageCycles[sim.S3]
	if single <= 0 {
		t.Fatal("no S3 cycles for the rated row")
	}
	coo2 := sparse.NewCOO(100, 10)
	coo2.Append(50, 1, 3)
	coo2.Append(50, 2, 4)
	mx2, err := sparse.NewMatrix(coo2)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := sideCost(mx2.R, mx2.Cols(), cfg)
	if rep.StageCycles[sim.S1] != rep2.StageCycles[sim.S1] {
		t.Fatalf("same single-row work charged differently: %g vs %g",
			rep.StageCycles[sim.S1], rep2.StageCycles[sim.S1])
	}
}
