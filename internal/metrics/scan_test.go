package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// referenceScan is the row-at-a-time loop ScanTopK replaced in the serving
// scorer, kept as its oracle: exclusion first, then Push(i, Dot(x, row)).
func referenceScan(x []float32, y *linalg.Dense, lo, hi int, excluded func(int) bool, n int) []Scored {
	t := NewTopK(n)
	for i := lo; i < hi; i++ {
		if excluded != nil && excluded(i) {
			continue
		}
		t.Push(i, linalg.Dot(x, y.Row(i)))
	}
	return t.Drain()
}

func widen(x []float32) []float64 {
	xw := make([]float64, len(x))
	for j, v := range x {
		xw[j] = float64(v)
	}
	return xw
}

// mustEqualReference checks item for item and score for score (bitwise; two
// NaNs are equal — which payload an add of NaNs keeps is not observable).
func mustEqualReference(t testing.TB, x []float32, y *linalg.Dense, lo, hi int, excluded func(int) bool, n int, what string) {
	t.Helper()
	want := referenceScan(x, y, lo, hi, excluded, n)
	tk := NewTopK(n)
	ScanTopK(widen(x), y, lo, hi, excluded, tk)
	got := tk.Drain()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, reference %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		same := math.Float64bits(g.Score) == math.Float64bits(w.Score) || (math.IsNaN(g.Score) && math.IsNaN(w.Score))
		if g.Item != w.Item || !same {
			t.Fatalf("%s rank %d: got %+v (%x), reference %+v (%x)", what, i, g, math.Float64bits(g.Score), w, math.Float64bits(w.Score))
		}
	}
}

func randScanDense(rng *rand.Rand, rows, k int) *linalg.Dense {
	d := linalg.NewDense(rows, k)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

// TestScanTopKMatchesReference: the blocked scan and the old loop leave the
// same heap — over every row count up to two 8-row blocks and a 4- and 1-row
// tail, odd k (the portable body of the 8-row kernel) and even, unaligned
// ranges, heaps smaller and larger than the range, and exclusion sets from
// none to "everything that would have won".
func TestScanTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rowCounts := []int{1000, 1001, 1002, 1003}
	for rows := 0; rows <= 17; rows++ {
		rowCounts = append(rowCounts, rows)
	}
	for _, rows := range rowCounts {
		for _, k := range []int{1, 7, 32, 33} {
			y := randScanDense(rng, rows, k)
			x := make([]float32, k)
			for j := range x {
				x[j] = float32(rng.NormFloat64())
			}
			ranges := [][2]int{{0, rows}}
			if rows > 3 {
				ranges = append(ranges, [2]int{1, rows - 1}, [2]int{3, rows}, [2]int{2, 2}, [2]int{rows / 2, min(rows/2+3, rows)})
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				for _, n := range []int{1, 10, rows + 5} {
					// "every top item excluded": whatever wins without an
					// excluder is excluded, so the sink's filter admits
					// candidates only to have the predicate turn them away.
					top := map[int]bool{}
					for _, s := range referenceScan(x, y, lo, hi, nil, n) {
						top[s.Item] = true
					}
					for name, ex := range map[string]func(int) bool{
						"none":   nil,
						"sparse": func(i int) bool { return i%13 == 5 },
						"top":    func(i int) bool { return top[i] },
						"all":    func(int) bool { return true },
					} {
						mustEqualReference(t, x, y, lo, hi, ex, n,
							fmt.Sprintf("rows=%d k=%d [%d,%d) n=%d ex=%s", rows, k, lo, hi, n, name))
					}
				}
			}
		}
	}
}

// TestScanTopKIdenticalRows: ties come out in ascending item index, for
// heaps ending inside a block, on its edge, and past the range.
func TestScanTopKIdenticalRows(t *testing.T) {
	const rows, k = 23, 5
	y := linalg.NewDense(rows, k)
	for i := range y.Data {
		y.Data[i] = float32(i%k) - 1.5
	}
	x := []float32{1, -2, 0.5, 3, 1}
	for _, n := range []int{1, 4, 6, rows, rows + 5} {
		for _, ex := range []func(int) bool{nil, func(i int) bool { return i < 3 || i == 9 }} {
			mustEqualReference(t, x, y, 0, rows, ex, n, fmt.Sprintf("identical rows n=%d", n))
			tk := NewTopK(n)
			ScanTopK(widen(x), y, 0, rows, ex, tk)
			got := tk.Drain()
			for i := 1; i < len(got); i++ {
				if got[i].Item <= got[i-1].Item {
					t.Fatalf("n=%d: tie order %v not ascending", n, got)
				}
			}
		}
	}
}

// TestScanTopKNaNScores: a NaN score is admitted while the heap fills and
// loses every compare after — wherever it lands, the blocked scan offers
// the same pushes in the same order as the reference, so the heaps agree.
func TestScanTopKNaNScores(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rows, k, n = 40, 4, 6
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, at := range [][]int{{0}, {2, 3}, {n - 1}, {n}, {n + 1, 20}, {0, 1, 2, 3, 4, 5, 6, 7}, {rows - 1}} {
		y := randScanDense(rng, rows, k)
		for _, i := range at {
			y.Data[i*k+1] = nan
		}
		y.Data[11*k], y.Data[12*k] = inf, -inf
		x := []float32{1, 0.5, -1, 2}
		for _, ex := range []func(int) bool{nil, func(i int) bool { return i%5 == 0 }} {
			mustEqualReference(t, x, y, 0, rows, ex, n, fmt.Sprintf("NaN rows %v", at))
			mustEqualReference(t, x, y, 1, rows-2, ex, rows, fmt.Sprintf("NaN rows %v, heap never full", at))
		}
	}
}

// TestScanTopKSlabs: scanning a range in slabs into one heap — how the
// serving scorer calls it — equals scanning it at once, for every slab width
// up to two 8-row blocks and a tail, at an even and an odd k.
func TestScanTopKSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const rows, n = 1003, 10
	slabs := []int{250, rows}
	for slab := 1; slab <= 17; slab++ {
		slabs = append(slabs, slab)
	}
	for _, k := range []int{16, 33} {
		y := randScanDense(rng, rows, k)
		x := y.Row(17)
		ex := func(i int) bool { return i == 17 || i%7 == 0 }
		want := referenceScan(x, y, 0, rows, ex, n)
		for _, slab := range slabs {
			tk := NewTopK(n)
			xw := widen(x)
			for lo := 0; lo < rows; lo += slab {
				ScanTopK(xw, y, lo, min(lo+slab, rows), ex, tk)
			}
			got := tk.Drain()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d slab=%d rank %d: got %+v, want %+v", k, slab, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScanTopKZeroAllocs pins the steady-state scan at 0 allocations, like
// quant.TestScanZeroAllocs does for the compressed kernels.
func TestScanTopKZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const rows, k = 2000, 32
	y := randScanDense(rng, rows, k)
	xw := widen(y.Row(3))
	ex := func(i int) bool { return i%9 == 0 }
	tk := NewTopK(10)
	allocs := testing.AllocsPerRun(20, func() {
		tk.Reset()
		ScanTopK(xw, y, 1, rows-1, ex, tk)
	})
	if allocs != 0 {
		t.Errorf("ScanTopK allocates %v times per scan, want 0", allocs)
	}
}

// fuzzScan decodes a fuzz input: [k, n, mask, lo, trim] then one byte per
// value, the first k the query, the rest rows. Bytes map to small multiples
// of 1/8 (so ties are common) except the three extremes, which become
// NaN and ±Inf.
func fuzzScan(data []byte) (x []float32, y *linalg.Dense, lo, hi, n int, excluded func(int) bool, ok bool) {
	if len(data) < 5 {
		return
	}
	k := 1 + int(data[0])%9
	n = 1 + int(data[1])%12
	mask := data[2]
	vals := make([]float32, 0, len(data)-5)
	for _, b := range data[5:] {
		switch v := int8(b); v {
		case -128:
			vals = append(vals, float32(math.NaN()))
		case 127:
			vals = append(vals, float32(math.Inf(1)))
		case -127:
			vals = append(vals, float32(math.Inf(-1)))
		default:
			vals = append(vals, float32(v)/8)
		}
	}
	rows := len(vals)/k - 1
	if rows < 1 || rows > 64 {
		return
	}
	x = vals[:k]
	y = linalg.NewDenseFrom(rows, k, vals[k:(rows+1)*k])
	lo = int(data[3]) % (rows + 1)
	hi = rows - int(data[4])%(rows-lo+1)
	if mask != 0 {
		excluded = func(i int) bool { return (uint(mask)>>(uint(i)%8))&1 == 1 }
	}
	return x, y, lo, hi, n, excluded, true
}

// fuzzScanBytes is fuzzScan's inverse for seeding (values in eighths).
func fuzzScanBytes(k, n int, mask byte, lo, trim int, x []int8, rows [][]int8) []byte {
	out := []byte{byte(k - 1), byte(n - 1), mask, byte(lo), byte(trim)}
	for _, v := range x {
		out = append(out, byte(v))
	}
	for _, r := range rows {
		for _, v := range r {
			out = append(out, byte(v))
		}
	}
	return out
}

// FuzzScanF32MatchesReference: any small matrix, query, range and mask —
// the blocked scan equals the reference loop item for item and score for
// score. No lane runs the fuzzer; the seeds run as ordinary tests.
func FuzzScanF32MatchesReference(f *testing.F) {
	same := [][]int8{{3, -2, 5}, {3, -2, 5}, {3, -2, 5}, {3, -2, 5}, {3, -2, 5}, {3, -2, 5}, {3, -2, 5}}
	mixed := [][]int8{{9, 9, 9}, {1, 0, 0}, {9, 9, 9}, {0, 2, 0}, {9, 9, 9}, {9, 9, 9}, {1, 1, 1}, {8, 8, 8}, {-4, 2, 1}}
	nans := [][]int8{{-128, 1, 1}, {4, 4, 4}, {1, 2, 3}, {0, -128, 0}, {127, 0, 0}, {-127, 0, 0}, {2, 2, 2}, {6, 6, 6}, {5, 5, 5}}
	f.Add(fuzzScanBytes(3, 2, 0, 0, 0, []int8{8, 8, 8}, same))                              // ties, ascending id
	f.Add(fuzzScanBytes(3, 12, 0, 0, 0, []int8{8, 8, 8}, same))                             // n past the range
	f.Add(fuzzScanBytes(3, 3, 0, 1, 1, []int8{8, 8, 8}, mixed))                             // unaligned [1, rows-1)
	f.Add(fuzzScanBytes(3, 1, 0b00000101, 0, 0, []int8{8, 8, 8}, mixed))                    // the top items excluded
	f.Add(fuzzScanBytes(3, 2, 0xff, 0, 0, []int8{8, -8, 16}, mixed))                        // everything excluded
	f.Add(fuzzScanBytes(3, 2, 0, 0, 0, []int8{8, 8, 8}, nans))                              // NaN before the heap fills
	f.Add(fuzzScanBytes(3, 2, 0, 1, 0, []int8{8, 8, 8}, nans))                              // NaN after it fills
	f.Add(fuzzScanBytes(3, 4, 0b00000010, 0, 2, []int8{-128, 8, 0}, mixed))                 // NaN in the query: every score NaN
	f.Add(fuzzScanBytes(1, 5, 0, 2, 0, []int8{-8}, [][]int8{{1}, {2}, {3}, {4}, {5}, {6}})) // k = 1, 1-row tail only after lo
	// Ranges of 0 to 17 rows from row 1, at widths 2 to 9 (odd k takes the
	// 8-row kernel's portable body): every mix of 8-row blocks and 4- and
	// 1-row tails.
	rng := rand.New(rand.NewSource(43))
	for d := 0; d <= 17; d++ {
		k := 2 + d%8
		x, rows := make([]int8, k), make([][]int8, d+3)
		for j := range x {
			x[j] = int8(rng.Intn(33) - 16)
		}
		for r := range rows {
			rows[r] = make([]int8, k)
			for j := range rows[r] {
				rows[r][j] = int8(rng.Intn(33) - 16)
			}
		}
		f.Add(fuzzScanBytes(k, 1+d%12, byte(d*37), 1, 2, x, rows)) // [1, d+1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, lo, hi, n, excluded, ok := fuzzScan(data)
		if !ok {
			t.Skip()
		}
		mustEqualReference(t, x, y, lo, hi, excluded, n, fmt.Sprintf("%dx%d [%d,%d) n=%d", y.Rows, y.Cols, lo, hi, n))
	})
}
