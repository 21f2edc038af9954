package experiments

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/variant"
)

// smallSettings keeps the figure smoke tests fast.
func smallSettings() Settings {
	s := Defaults()
	s.Scale = 0.2
	s.Iterations = 1
	return s
}

func TestTable1Rows(t *testing.T) {
	tab, err := Table1(smallSettings())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table1 has %d rows, want 4", len(tab.Rows))
	}
	order := []string{"MVLE", "NTFX", "YMR1", "YMR4"}
	for i, r := range tab.Rows {
		if r[0] != order[i] {
			t.Fatalf("row %d is %s, want %s (paper order)", i, r[0], order[i])
		}
	}
}

func TestFig1Structure(t *testing.T) {
	tab, err := Fig1(smallSettings())
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets + mean row; every ratio > 1 (GPU slower).
	if len(tab.Rows) != 5 {
		t.Fatalf("Fig1 rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows[:4] {
		ratio := parseSpeedup(t, r[3])
		if ratio <= 1 {
			t.Fatalf("%s: flat GPU not slower than CPU (%s)", r[0], r[3])
		}
	}
}

func TestFig6And10PerDataset(t *testing.T) {
	s := smallSettings()
	f6, err := Fig6(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6) != 4 {
		t.Fatalf("Fig6 produced %d tables, want one per dataset", len(f6))
	}
	for _, tab := range f6 {
		if len(tab.Rows) != 4 {
			t.Fatalf("Fig6 %s has %d ladder rows, want 4", tab.Title, len(tab.Rows))
		}
	}
	f10, err := Fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10) != 4 {
		t.Fatalf("Fig10 produced %d tables", len(f10))
	}
	for _, tab := range f10 {
		if len(tab.Rows) != 5 {
			t.Fatalf("Fig10 %s has %d size rows, want 5", tab.Title, len(tab.Rows))
		}
	}
}

func TestFig7And9Rows(t *testing.T) {
	s := smallSettings()
	f7, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 5 {
		t.Fatalf("Fig7 rows = %d", len(f7.Rows))
	}
	for _, r := range f7.Rows[:4] {
		if parseSpeedup(t, r[1]) <= 1 || parseSpeedup(t, r[2]) <= 1 {
			t.Fatalf("%s: ours not faster than SAC15 (%v)", r[0], r)
		}
	}
	f9, err := Fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != 5 {
		t.Fatalf("Fig9 rows = %d", len(f9.Rows))
	}
}

func TestFig8StageNarrative(t *testing.T) {
	tab, err := Fig8(smallSettings())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("Fig8 rows = %d", len(tab.Rows))
	}
	// Totals must improve monotonically down the tuning ladder.
	var prev float64 = 1e18
	for _, r := range tab.Rows {
		tot, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatalf("bad total %q", r[4])
		}
		if tot >= prev {
			t.Fatalf("stage %s did not improve: %g -> %g", r[0], prev, tot)
		}
		prev = tot
	}
}

func TestKSweepErosion(t *testing.T) {
	s := smallSettings()
	tab, err := KSweep(s, []int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("KSweep rows = %d", len(tab.Rows))
	}
	s10 := parseSpeedup(t, tab.Rows[0][4])
	s100 := parseSpeedup(t, tab.Rows[1][4])
	if !(s10 > 1.2) {
		t.Fatalf("k=10 speedup vs cuMF = %.1f, want > 1.2 (paper: 2.2-6.8)", s10)
	}
	if !(s100 < s10) {
		t.Fatalf("speedup did not erode with k: %.1f at k=10 vs %.1f at k=100", s10, s100)
	}
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

func TestConvergenceCurves(t *testing.T) {
	serialUnderRace(t)
	s := smallSettings()
	tab, err := Convergence(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Convergence rows = %d", len(tab.Rows))
	}
	// ALS RMSE strictly improves with iterations and beats SGD at every
	// matched iteration count (exact solves vs stochastic steps).
	var prevALS = 1e18
	for _, r := range tab.Rows {
		als, err1 := strconv.ParseFloat(r[1], 64)
		sgd, err2 := strconv.ParseFloat(r[2], 64)
		ccd, err3 := strconv.ParseFloat(r[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("bad row %v", r)
		}
		if als >= prevALS {
			t.Fatalf("ALS RMSE not improving: %g -> %g", prevALS, als)
		}
		prevALS = als
		if !(als < sgd) {
			t.Fatalf("ALS (%g) not ahead of SGD (%g) at iteration %s", als, sgd, r[0])
		}
		if ccd <= 0 || ccd > 2 {
			t.Fatalf("CCD RMSE implausible: %g", ccd)
		}
	}
}

func TestMultiGPUScaling(t *testing.T) {
	s := smallSettings()
	tab, err := MultiGPU(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("MultiGPU rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		comp := parseSpeedup(t, r[4])
		total := parseSpeedup(t, r[5])
		if comp < 2 || comp > 4.5 {
			t.Errorf("%s: 4-GPU compute speedup %.1f out of [2,4.5]", r[0], comp)
		}
		if !(total <= comp+0.05) {
			t.Errorf("%s: total speedup %.1f exceeds compute speedup %.1f", r[0], total, comp)
		}
		if total < 1.2 {
			t.Errorf("%s: total speedup %.1f — communication erased all gain", r[0], total)
		}
	}
}

func TestBestVariantPerArchitecture(t *testing.T) {
	if BestVariant(device.GPU) != (variant.Options{Local: true, Register: true}) {
		t.Fatal("GPU recommendation wrong")
	}
	if BestVariant(device.CPU) != (variant.Options{Local: true}) {
		t.Fatal("CPU recommendation wrong")
	}
	if BestVariant(device.MIC) != (variant.Options{Local: true}) {
		t.Fatal("MIC recommendation wrong")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Caption: "C", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: T ==") || !strings.Contains(out, "paper: C") {
		t.Fatalf("Fprint output missing header: %q", out)
	}
	if !strings.Contains(out, "333") {
		t.Fatal("Fprint lost a row")
	}
}

func TestDatasetsCachedAndScaled(t *testing.T) {
	s := smallSettings()
	a := Datasets(s)
	b := Datasets(s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("dataset cache returned different instances")
		}
	}
	// Different seeds must not share cache entries.
	s2 := s
	s2.Seed++
	c := Datasets(s2)
	if c[0] == a[0] {
		t.Fatal("cache ignored the seed")
	}
	// The four datasets keep the paper's figure order.
	for i, name := range []string{"MVLE", "NTFX", "YMR1", "YMR4"} {
		if a[i].Name != name {
			t.Fatalf("dataset %d = %s, want %s", i, a[i].Name, name)
		}
	}
}

func parseSpeedup(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad speedup cell %q", s)
	}
	return v
}
