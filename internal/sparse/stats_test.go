package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func uniformRowMatrix(t *testing.T, rows, perRow, cols int) *CSR {
	t.Helper()
	coo := NewCOO(rows, cols)
	for r := 0; r < rows; r++ {
		for j := 0; j < perRow; j++ {
			coo.Append(r, j, 1)
		}
	}
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRowStatsUniform(t *testing.T) {
	m := uniformRowMatrix(t, 64, 5, 16)
	s := RowStats(m)
	if s.Min != 5 || s.Max != 5 || s.Mean != 5 || s.CoV != 0 || s.Empty != 0 {
		t.Fatalf("uniform stats wrong: %+v", s)
	}
	if s.Median != 5 || s.P90 != 5 || s.P99 != 5 {
		t.Fatalf("uniform percentiles wrong: %+v", s)
	}
}

func TestRowStatsSkewed(t *testing.T) {
	coo := NewCOO(4, 100)
	// Rows of length 0, 1, 1, 98.
	coo.Append(1, 0, 1)
	coo.Append(2, 0, 1)
	for j := 0; j < 98; j++ {
		coo.Append(3, j, 1)
	}
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	s := RowStats(m)
	if s.Min != 0 || s.Max != 98 || s.Empty != 1 {
		t.Fatalf("skewed stats wrong: %+v", s)
	}
	if s.Mean != 25 {
		t.Fatalf("mean = %g, want 25", s.Mean)
	}
	if s.CoV < 1.5 {
		t.Fatalf("CoV = %g, expected heavy skew > 1.5", s.CoV)
	}
}

func TestColStatsMatchesTransposedRowStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := NewCSR(randomCOO(rng, 40, 30, 300))
	if err != nil {
		t.Fatal(err)
	}
	cs := ColStats(m.ToCSC())
	var total int
	for c := 0; c < 30; c++ {
		total += m.ToCSC().ColNNZ(c)
	}
	if cs.Count != 30 {
		t.Fatalf("Count = %d, want 30", cs.Count)
	}
	if math.Abs(cs.Mean*30-float64(total)) > 1e-9 {
		t.Fatalf("mean inconsistent with total")
	}
}

// TestWarpImbalanceBalanced: uniform rows waste no lane-cycles.
func TestWarpImbalanceBalanced(t *testing.T) {
	m := uniformRowMatrix(t, 128, 7, 16)
	if got := WarpImbalance(m, 32); got != 0 {
		t.Fatalf("WarpImbalance = %g, want 0 for uniform rows", got)
	}
}

// TestWarpImbalanceSkewed: one long row per warp idles the other lanes,
// which is exactly the paper's "unbalanced thread use" failure mode.
func TestWarpImbalanceSkewed(t *testing.T) {
	coo := NewCOO(32, 64)
	for j := 0; j < 64; j++ {
		coo.Append(0, j, 1) // row 0: 64 nonzeros
	}
	for r := 1; r < 32; r++ {
		coo.Append(r, 0, 1) // rows 1..31: 1 nonzero
	}
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	got := WarpImbalance(m, 32)
	// useful = 64+31 = 95; total = 64*32 = 2048; waste = 1 - 95/2048.
	want := 1 - 95.0/2048.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("WarpImbalance = %g, want %g", got, want)
	}
}

func TestWarpImbalancePartialLastGroup(t *testing.T) {
	// 40 rows with width 32: second group has only 8 rows.
	coo := NewCOO(40, 8)
	for r := 0; r < 40; r++ {
		for j := 0; j <= r%3; j++ {
			coo.Append(r, j, 1)
		}
	}
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	got := WarpImbalance(m, 32)
	if got < 0 || got >= 1 {
		t.Fatalf("WarpImbalance = %g out of [0,1)", got)
	}
}

func TestWarpImbalancePanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	m := uniformRowMatrix(t, 4, 1, 4)
	WarpImbalance(m, 0)
}

func TestDegreeStatsEmpty(t *testing.T) {
	s := degreeStats(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty stats wrong: %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []int{0, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Fatalf("percentile(0.5) = %g, want 5", got)
	}
	if got := percentile(sorted, 0); got != 0 {
		t.Fatalf("percentile(0) = %g, want 0", got)
	}
	if got := percentile(sorted, 1); got != 10 {
		t.Fatalf("percentile(1) = %g, want 10", got)
	}
}

func TestStatsString(t *testing.T) {
	m := uniformRowMatrix(t, 8, 2, 4)
	s := RowStats(m)
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}
