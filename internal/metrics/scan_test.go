package metrics

import (
	"fmt"
	"math"
	"math/big"
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

// mustEqualReference checks item for item and score for score (bitwise; two
// NaNs are equal — which payload an add of NaNs keeps is not observable).
func mustEqualReference(t testing.TB, x []float32, y *linalg.Dense, lo, hi int, excluded func(int) bool, n int, what string) {
	t.Helper()
	want := referenceScan(x, y, lo, hi, excluded, n)
	tk := NewTopK(n)
	ScanTopK(PrepareScan(x, nil, linalg.MaxRowNorm(y)), y, lo, hi, excluded, tk)
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
// tail, odd k (the portable bodies of the 8-row kernels) and widths the
// screen's kernel takes, unaligned ranges, heaps smaller and larger than the
// range, and exclusion sets from none to "everything that would have won" —
// and on the planted inputs of screenFixtures: near ties the float32 screen
// cannot see, and queries and rows that switch the screen off.
func TestScanTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rowCounts := []int{1000, 1001, 1002, 1003}
	for rows := 0; rows <= 17; rows++ {
		rowCounts = append(rowCounts, rows)
	}
	type fixture struct {
		name string
		x    []float32
		y    *linalg.Dense
	}
	var cases []fixture
	for _, rows := range rowCounts {
		for _, k := range []int{1, 4, 7, 12, 32, 33} {
			x := make([]float32, k)
			for j := range x {
				x[j] = float32(rng.NormFloat64())
			}
			cases = append(cases, fixture{"random", x, randScanDense(rng, rows, k)})
		}
	}
	for _, k := range []int{4, 12, 32} {
		for name, f := range screenFixtures(rng, k) {
			cases = append(cases, fixture{name, f.x, f.y})
		}
	}
	for _, c := range cases {
		x, y, rows, k := c.x, c.y, c.y.Rows, c.y.Cols
		ranges := [][2]int{{0, rows}}
		if rows > 3 {
			ranges = append(ranges, [2]int{1, rows - 1}, [2]int{3, rows}, [2]int{2, 2}, [2]int{rows / 2, min(rows/2+3, rows)})
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			for _, n := range []int{1, 2, 10, rows + 5} {
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
						fmt.Sprintf("%s rows=%d k=%d [%d,%d) n=%d ex=%s", c.name, rows, k, lo, hi, n, name))
				}
			}
		}
	}
}

// screenFixture is a query and the rows it scans.
type screenFixture struct {
	x []float32
	y *linalg.Dense
}

// nearTieRow writes, into a row of a query of ones, the plant (2²⁴, −2²⁴,
// 1, d) at components 0–3: Dot reads 1 + d, but in the screen's order 2²⁴
// absorbs the 1 in lane 0 + lane 2 and the screen value reads 0.
func nearTieRow(row []float32, d float32) {
	clear(row)
	row[0], row[1], row[2], row[3] = 0x1p24, -0x1p24, 1, d
}

// screenFixtures plants, at width k ≥ 4, the inputs the float32 screen must
// get right (each with 40 rows, so the heap fills in the first 8-row block
// and the screen rules on the rest):
//   - "near-tie": a query of ones; rows 0–7 score exactly 1, and the rest
//     score 1, 1 ± 2⁻³⁰ (less than a float32 ulp from the heap minimum) or
//     1 ± 2⁻²² while their screen value reads 0 — a row that beats the heap
//     minimum only by what the screen lost;
//   - "gate": ‖x‖·max‖y_i‖ ≥ 2¹⁰⁰, which switches the screen off;
//   - "nan" and "inf": a NaN or an Inf row, so max‖y_i‖ is not finite and the
//     screen is off.
func screenFixtures(rng *rand.Rand, k int) map[string]screenFixture {
	const rows = 40
	out := map[string]screenFixture{}
	ones := make([]float32, k)
	for j := range ones {
		ones[j] = 1
	}
	y := linalg.NewDense(rows, k)
	deltas := []float32{0x1p-30, -0x1p-30, 0, 0x1p-22, -0x1p-22}
	for i := 0; i < rows; i++ {
		if i < 8 {
			y.Row(i)[i%k] = 1
			continue
		}
		nearTieRow(y.Row(i), deltas[i%len(deltas)])
	}
	out["near-tie"] = screenFixture{ones, y}
	big := randScanDense(rng, rows, k)
	for i := range big.Data {
		big.Data[i] *= 0x1p45
	}
	x := make([]float32, k)
	for j := range x {
		x[j] = float32(rng.NormFloat64()) * 0x1p60
	}
	out["gate"] = screenFixture{x, big}
	for name, v := range map[string]float32{"nan": float32(math.NaN()), "inf": float32(math.Inf(1))} {
		d := randScanDense(rng, rows, k)
		d.Row(rows / 2)[k-1] = v
		out[name] = screenFixture{ones, d}
	}
	return out
}

// TestScanTopKScreens: the screen rules rows out once the heap is full, and
// only where it may — a fixture that switches it off (screenFixtures' gate,
// NaN and Inf rows), a zero bound (a snapshot that computed none) and a
// width or build without the vector screen (linalg.ScreenVectorized) score
// every row.
func TestScanTopKScreens(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows, k, n = 2000, 32, 10
	y := randScanDense(rng, rows, k)
	x := y.Row(7)
	scan := func(x []float32, y *linalg.Dense, maxNorm float64) int {
		return ScanTopK(PrepareScan(x, nil, maxNorm), y, 0, y.Rows, nil, NewTopK(n))
	}
	got := scan(x, y, linalg.MaxRowNorm(y))
	if screens := linalg.ScreenVectorized(k); (screens && (got > rows/5 || got < n)) || (!screens && got != rows) {
		t.Errorf("screened scan scored %d of %d rows (vector screen: %v)", got, rows, screens)
	}
	if y33 := randScanDense(rng, rows, 33); scan(y33.Row(7), y33, linalg.MaxRowNorm(y33)) != rows {
		t.Errorf("k = 33, which no build screens: not every row scored")
	}
	if got := scan(x, y, 0); got != rows {
		t.Errorf("no bound: scored %d of %d rows", got, rows)
	}
	for name, f := range screenFixtures(rng, k) {
		if name == "near-tie" {
			continue
		}
		if got := scan(f.x, f.y, linalg.MaxRowNorm(f.y)); got != f.y.Rows {
			t.Errorf("%s: scored %d of %d rows with the screen off", name, got, f.y.Rows)
		}
	}
}

// screenValue reads row r's screen value back from linalg.Screen8's mask:
// bit r is set exactly for cuts at or below the value, so a binary search
// over the float32 order finds it. (A zero's sign does not show.)
func screenValue(x, rows []float32, stride, r int) float32 {
	key := func(f float32) int64 { // the float32 order as an integer order
		b := int64(math.Float32bits(f))
		if b&(1<<31) != 0 {
			return -(b &^ (1 << 31))
		}
		return b
	}
	val := func(k int64) float32 {
		if k < 0 {
			return math.Float32frombits(uint32(-k) | 1<<31)
		}
		return math.Float32frombits(uint32(k))
	}
	lo, hi := key(-math.MaxFloat32), key(math.MaxFloat32) // bit set at lo, invariant
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if linalg.Screen8(x, rows, stride, val(mid))&(1<<r) != 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return val(lo)
}

// TestScreenCut: the cut is the largest float32 at or below thr − errb,
// compared exactly (math/big) — rounded downward, never to nearest — for
// thresholds across the float32 range, float32-exact thresholds with bounds
// far below their ulp, and bounds from subnormal to large.
func TestScreenCut(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	exact := func(f float64) *big.Float { return new(big.Float).SetPrec(4096).SetFloat64(f) }
	for trial := 0; trial < 20000; trial++ {
		thr := math.Ldexp(2*rng.Float64()-1, rng.Intn(200)-100)
		if trial%2 == 1 {
			thr = float64(float32(thr))
		}
		q := ScanQuery{errb: math.Ldexp(rng.Float64(), rng.Intn(260)-150)}
		c := q.cut(thr)
		diff := exact(thr)
		diff.Sub(diff, exact(q.errb))
		if exact(float64(c)).Cmp(diff) > 0 {
			t.Fatalf("thr %g − errb %g: cut %g is above the difference", thr, q.errb, c)
		}
		if up := math.Nextafter32(c, float32(math.Inf(1))); exact(float64(up)).Cmp(diff) <= 0 {
			t.Fatalf("thr %g − errb %g: cut %g, but %g is at or below the difference too", thr, q.errb, c, up)
		}
	}
}

// TestScanTopKRescoresTheCut: a row whose screen value equals the cut is
// not ruled out — the screen skips only values strictly below it — so it
// gets an exact score (and here loses to the heap anyway).
func TestScanTopKRescoresTheCut(t *testing.T) {
	const k, maxNorm = 4, 8
	if !linalg.ScreenVectorized(k) {
		t.Skip("this build does not screen")
	}
	x := []float32{1, 0, 0, 0}
	q := PrepareScan(x, nil, maxNorm)
	y := linalg.NewDense(16, k)
	y.Row(0)[0] = 4 // the heap's one entry: thr = 4
	y.Row(9)[0] = q.cut(4)
	tk := NewTopK(1)
	if scored := ScanTopK(q, y, 0, y.Rows, nil, tk); scored != 9 {
		t.Errorf("scored %d rows, want the first block and the row at the cut (9)", scored)
	}
	if got := tk.Drain(); len(got) != 1 || got[0].Item != 0 {
		t.Errorf("heap %v, want item 0", got)
	}
}

// TestScreenBoundHolds is the screen's exactness proof as a test: for
// every row, |screen value − Dot| ≤ errb, on random rows, cancellation-heavy
// rows (terms near 2²⁰ that cancel to about 1), rows whose components span
// a wide exponent range, and subnormal queries and rows whose products
// underflow, at widths the kernel takes and one it does not.
func TestScreenBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const blocks = 8
	gens := map[string]func(x []float32, y *linalg.Dense){
		"random": func(x []float32, y *linalg.Dense) {
			for j := range x {
				x[j] = float32(rng.NormFloat64())
			}
			for i := range y.Data {
				y.Data[i] = float32(rng.NormFloat64())
			}
		},
		"cancellation": func(x []float32, y *linalg.Dense) {
			for j := range x {
				x[j] = 0x1p10 * float32(1+rng.Float64())
			}
			for i := 0; i < y.Rows; i++ {
				row := y.Row(i)
				var sum float64
				for j := range row[:len(row)-1] {
					row[j] = float32(0x1p10 * (2*rng.Float64() - 1))
					sum += float64(row[j]) * float64(x[j])
				}
				last := len(row) - 1 // cancel the sum to about 1
				row[last] = float32((1 - sum) / float64(x[last]))
			}
		},
		"wide-exponent": func(x []float32, y *linalg.Dense) {
			exp := func() float32 { return float32(math.Ldexp(2*rng.Float64()-1, rng.Intn(100)-60)) }
			for j := range x {
				x[j] = exp()
			}
			for i := range y.Data {
				y.Data[i] = exp()
			}
		},
		"subnormal": func(x []float32, y *linalg.Dense) {
			for j := range x {
				x[j] = float32(math.Ldexp(2*rng.Float64()-1, -70-rng.Intn(10)))
			}
			for i := range y.Data {
				y.Data[i] = float32(math.Ldexp(2*rng.Float64()-1, -70-rng.Intn(10)))
			}
		},
	}
	for name, gen := range gens {
		for _, k := range []int{4, 7, 12, 32, 64} {
			for trial := 0; trial < 10; trial++ {
				x, y := make([]float32, k), linalg.NewDense(8*blocks, k)
				gen(x, y)
				normX, maxNorm := math.Sqrt(linalg.Nrm2Sq(x)), linalg.MaxRowNorm(y)
				if !(maxNorm > 0 && normX*maxNorm < screenGate) {
					t.Fatalf("%s k=%d: ‖x‖ = %g, M = %g: outside the screen's gate", name, k, normX, maxNorm)
				}
				errb := screenBound(k, normX, maxNorm)
				for i := 0; i < y.Rows; i++ {
					v := screenValue(x, y.Data[i&^7*k:], k, i&7)
					dot := linalg.Dot(x, y.Row(i))
					if err := math.Abs(float64(v) - dot); !(err <= errb) {
						t.Fatalf("%s k=%d row %d: screen %g, Dot %g: error %g over the bound %g", name, k, i, v, dot, err, errb)
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
			ScanTopK(PrepareScan(x, nil, linalg.MaxRowNorm(y)), y, 0, rows, ex, tk)
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
			q := PrepareScan(x, nil, linalg.MaxRowNorm(y))
			for lo := 0; lo < rows; lo += slab {
				ScanTopK(q, y, lo, min(lo+slab, rows), ex, tk)
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
	q := PrepareScan(y.Row(3), nil, linalg.MaxRowNorm(y))
	ex := func(i int) bool { return i%9 == 0 }
	tk := NewTopK(10)
	allocs := testing.AllocsPerRun(20, func() {
		tk.Reset()
		ScanTopK(q, y, 1, rows-1, ex, tk)
	})
	if allocs != 0 {
		t.Errorf("ScanTopK allocates %v times per scan, want 0", allocs)
	}
}

// fuzzScan decodes a fuzz input: [k, n, mask, lo, trim] then one byte per
// value, the first k the query, the rest rows. Bytes map to small multiples
// of 1/8 (so ties are common) except the extremes: ±127 and −128 become ±Inf
// and NaN, and ±126, ±125 and 124 the screen's edges — ±2²⁴ (a term that
// absorbs a 1 in float32), ±2⁻³⁰ (far below a float32 ulp of 1) and 2⁸⁰ (a
// query past the screen's gate against any row holding a 2²⁴).
func fuzzScan(data []byte) (x []float32, y *linalg.Dense, lo, hi, n int, excluded func(int) bool, ok bool) {
	if len(data) < 5 {
		return
	}
	k := 1 + int(data[0])%32
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
		case 126, -126:
			vals = append(vals, float32(v/126)*0x1p24)
		case 125, -125:
			vals = append(vals, float32(v/125)*0x1p-30)
		case 124:
			vals = append(vals, 0x1p80)
		default:
			vals = append(vals, float32(v)/8)
		}
	}
	rows := len(vals)/k - 1
	if rows < 1 || rows > 80 {
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
	// The screen's seeds at k = 4, 12 and 32: near ties (screenFixtures'
	// plant, 1 ± 2⁻³⁰ against a heap minimum of 1, after a first block that
	// fills the heap), a query past the gate, and NaN and Inf rows.
	for _, k := range []int{4, 12, 32} {
		ones, tie, gate := make([]int8, k), make([][]int8, 24), make([]int8, k)
		for j := range ones {
			ones[j], gate[j] = 8, 124
		}
		for r := range tie {
			tie[r] = make([]int8, k)
			if r < 8 {
				tie[r][r%k] = 8
				continue
			}
			copy(tie[r], []int8{126, -126, 8, []int8{125, -125, 0}[r%3]})
		}
		f.Add(fuzzScanBytes(k, 2, 0, 0, 0, ones, tie))               // near ties
		f.Add(fuzzScanBytes(k, 2, 0, 0, 0, gate, tie[:16]))          // ‖x‖·M ≥ 2¹⁰⁰: screen off
		f.Add(fuzzScanBytes(k, 3, 0, 0, 0, ones, append(tie[:12:12], // a NaN, then an Inf row: M not finite
			append([]int8{-128}, ones[1:]...), append([]int8{127}, ones[1:]...), tie[14], tie[15])))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, lo, hi, n, excluded, ok := fuzzScan(data)
		if !ok {
			t.Skip()
		}
		mustEqualReference(t, x, y, lo, hi, excluded, n, fmt.Sprintf("%dx%d [%d,%d) n=%d", y.Rows, y.Cols, lo, hi, n))
	})
}
