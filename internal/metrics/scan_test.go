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
// The scan screens through buildScreen, so a build without the vector
// screen runs the same logic on Screen8's portable body; slab > 0 scans the
// range in slabs of that many rows, one heap throughout, as the serving
// scorer does.
func mustEqualReference(t testing.TB, x []float32, y *linalg.Dense, lo, hi int, excluded func(int) bool, n, slab int, what string) {
	t.Helper()
	want := referenceScan(x, y, lo, hi, excluded, n)
	tk := NewTopK(n)
	q := PrepareScan(x, nil, nil, buildScreen(y))
	if slab <= 0 {
		slab = max(hi-lo, 1)
	}
	for at := lo; at < hi; at += slab {
		ScanTopK(q, y, at, min(at+slab, hi), excluded, tk)
	}
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
// tail, widths that pad to 8 and one that does not need to, unaligned
// ranges, heaps smaller and larger than the range, and exclusion sets from
// none to "everything that would have won" — and on the planted inputs of
// screenFixtures: near ties, an outlier that coarsens the copy, subnormal
// rows, and queries and rows that switch the screen off.
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
					mustEqualReference(t, x, y, lo, hi, ex, n, 0,
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

// screenFixtures plants, at width k ≥ 4, the inputs the screen must get
// right (each with 40 rows, so the heap fills in the first 8-row block and
// the screen rules on the rest):
//   - "near-tie": a query of ones; rows 0–7 score exactly 1, and the rest
//     1, 1 ± 2⁻³⁰ or 1 ± 2⁻²² — a row that beats the heap minimum by far
//     less than the copy's resolution — through a 2²⁴ and a −2²⁴ that
//     cancel;
//   - "outlier": one component of one row is 2¹⁰ times every other, so
//     most rows quantize to a few levels and R is large: the bound must
//     hold all the same;
//   - "subnormal": rows and query of subnormal float32s;
//   - "huge": ‖x‖·max‖yᵢ‖ ≈ 2¹⁰⁵, far past any float32 sum;
//   - "zero": a zero query, which switches the screen off;
//   - "nan" and "inf": a NaN or an Inf row, so max‖yᵢ‖ is not finite and
//     no screen is built.
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
		row := y.Row(i)
		if i < 8 {
			row[i%k] = 1
			continue
		}
		row[0], row[1], row[2], row[3] = 0x1p24, -0x1p24, 1, deltas[i%len(deltas)]
	}
	out["near-tie"] = screenFixture{ones, y}
	outlier := randScanDense(rng, rows, k)
	outlier.Row(rows / 3)[k/2] = 0x1p10
	out["outlier"] = screenFixture{outlier.Row(5), outlier}
	sub := randScanDense(rng, rows, k)
	for i := range sub.Data {
		sub.Data[i] *= 0x1p-135
	}
	out["subnormal"] = screenFixture{sub.Row(rows - 1), sub}
	huge := randScanDense(rng, rows, k)
	for i := range huge.Data {
		huge.Data[i] *= 0x1p45
	}
	x := make([]float32, k)
	for j := range x {
		x[j] = float32(rng.NormFloat64()) * 0x1p60
	}
	out["huge"] = screenFixture{x, huge}
	out["zero"] = screenFixture{make([]float32, k), randScanDense(rng, rows, k)}
	for name, v := range map[string]float32{"nan": float32(math.NaN()), "inf": float32(math.Inf(1))} {
		d := randScanDense(rng, rows, k)
		d.Row(rows / 2)[k-1] = v
		out[name] = screenFixture{ones, d}
	}
	return out
}

// TestScanTopKScreens: the screen rules rows out once the heap is full, at
// every width up to MaxScreenK (k = 1, 7, 9 and 33 pad their rows), and
// only where it may: k = 513 (k8 = 520 past MaxScreenK), a zero query, NaN
// and Inf rows, and a build without the vector screen score every row —
// NewScreen builds a screen exactly where linalg.ScreenVectorized holds.
func TestScanTopKScreens(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows, n = 2000, 10
	scan := func(x []float32, y *linalg.Dense, sc *Screen) int {
		return ScanTopK(PrepareScan(x, nil, nil, sc), y, 0, y.Rows, nil, NewTopK(n))
	}
	for _, k := range []int{1, 7, 9, 32, 33, 64, 512} {
		y := randScanDense(rng, rows, k)
		x := y.Row(7)
		if got := scan(x, y, buildScreen(y)); got > rows/4 || got < n {
			t.Errorf("k=%d: the screened scan scored %d of %d rows", k, got, rows)
		}
		if sc := NewScreen(y); (sc != nil) != linalg.ScreenVectorized() {
			t.Errorf("k=%d: NewScreen built %v, the build's vector screen: %v", k, sc != nil, linalg.ScreenVectorized())
		}
		if got := scan(x, y, nil); got != rows {
			t.Errorf("k=%d, no screen: scored %d of %d rows", k, got, rows)
		}
	}
	if sc := buildScreen(randScanDense(rng, rows, 513)); sc != nil {
		t.Errorf("k = 513: a screen of width %d, past MaxScreenK", sc.k8)
	}
	if sc := buildScreen(linalg.NewDense(rows, 8)); sc != nil {
		t.Errorf("a zero matrix: built a screen")
	}
	for name, f := range screenFixtures(rng, 32) {
		sc := buildScreen(f.y)
		switch name {
		case "nan", "inf":
			if sc != nil {
				t.Errorf("%s: built a screen over a non-finite row", name)
			}
		case "zero":
			if got := scan(f.x, f.y, sc); got != f.y.Rows {
				t.Errorf("zero query: scored %d of %d rows", got, f.y.Rows)
			}
		case "outlier", "subnormal", "huge":
			if got := scan(f.x, f.y, sc); got >= f.y.Rows {
				t.Errorf("%s: the screen ruled out no row", name)
			}
		}
	}
}

// TestScreenCut: the cut is an integer at or below (thr − errb)/(s_x·s_y),
// compared exactly (math/big) — rounded downward, never to nearest or up —
// and at most one below that quotient's floor, for thresholds of either
// sign across a wide range, bounds from far below a threshold's ulp to
// larger than it, and scales whose product is not a float64; quotients
// past the int32 range clamp to its ends.
func TestScreenCut(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	exact := func(f float64) *big.Float { return new(big.Float).SetPrec(4096).SetFloat64(f) }
	for trial := 0; trial < 20000; trial++ {
		sx := math.Ldexp(1+rng.Float64(), rng.Intn(60)-40) / 2047
		sy := math.Ldexp(1+rng.Float64(), rng.Intn(60)-40) / 2047
		thr := math.Ldexp(2*rng.Float64()-1, rng.Intn(120)-60)
		s := sx * sy
		q := ScanQuery{errb: math.Ldexp(rng.Float64(), rng.Intn(160)-100),
			sLo: math.Nextafter(s, 0), sHi: math.Nextafter(s, math.Inf(1))}
		c := q.cut(thr)
		quo := exact(thr)
		quo.Sub(quo, exact(q.errb))
		quo.Quo(quo, new(big.Float).SetPrec(4096).Mul(exact(sx), exact(sy)))
		fl, _ := quo.Int(nil) // toward zero
		if quo.Sign() < 0 && !quo.IsInt() {
			fl.Sub(fl, big.NewInt(1))
		}
		switch {
		case fl.Cmp(big.NewInt(math.MaxInt32)) >= 0:
			if c != math.MaxInt32 {
				t.Fatalf("thr %g errb %g s %g: floor %v past int32, cut %d", thr, q.errb, s, fl, c)
			}
		case fl.Cmp(big.NewInt(math.MinInt32)) < 0:
			if c != math.MinInt32 {
				t.Fatalf("thr %g errb %g s %g: floor %v below int32, cut %d", thr, q.errb, s, fl, c)
			}
		default:
			if d := fl.Int64() - int64(c); d < 0 || d > 1 {
				t.Fatalf("thr %g errb %g s %g: cut %d, exact floor %v", thr, q.errb, s, c, fl)
			}
		}
	}
}

// TestScanTopKRescoresTheCut: a row whose int16 sum equals the cut is not
// ruled out — the screen skips only sums strictly below it — so it gets an
// exact score (and here loses to the heap anyway). Row 9's copy is planted
// so that x̂·ŷ₉ is the cut itself.
func TestScanTopKRescoresTheCut(t *testing.T) {
	const k = 4
	x := []float32{1, 1.0 / screenLevels, 0, 0} // x̂ = (2047, 1, 0, 0)
	y := linalg.NewDense(16, k)
	y.Row(0)[0] = 4 // the heap's one entry: thr = 4
	sc := buildScreen(y)
	q := PrepareScan(x, nil, nil, sc)
	if q.xq[0] != screenLevels || q.xq[1] != 1 {
		t.Fatalf("x̂ = %v, want (2047, 1, 0, 0)", q.xq)
	}
	c := q.cut(4)
	sc.q[9*sc.k8], sc.q[9*sc.k8+1] = int16(c/screenLevels), int16(c%screenLevels)
	tk := NewTopK(1)
	if scored := ScanTopK(q, y, 0, y.Rows, nil, tk); scored != 9 {
		t.Errorf("scored %d rows, want the first block and the row at the cut (9)", scored)
	}
	if got := tk.Drain(); len(got) != 1 || got[0].Item != 0 {
		t.Errorf("heap %v, want item 0", got)
	}
}

// TestScreenBoundHolds is the screen's exactness proof as a test: for
// every row, |s_x·s_y·(x̂·ŷᵢ) − Dot(x, yᵢ)| ≤ errb, the left side exact
// (math/big), on random rows, cancellation-heavy rows (terms near 2²⁰ that
// cancel to about 1), rows whose components span a wide exponent range,
// one outlier that dominates max|y|, and subnormal queries and rows, at
// widths that pad and the widest the screen takes. Each case also checks
// that the bound is not vacuous: on random rows it is under 2 % of ‖x‖·M.
func TestScreenBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const rows = 64
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
		"outlier": func(x []float32, y *linalg.Dense) {
			for j := range x {
				x[j] = float32(rng.NormFloat64())
			}
			for i := range y.Data {
				y.Data[i] = float32(rng.NormFloat64())
			}
			y.Data[rng.Intn(len(y.Data))] = 0x1p12
		},
		"subnormal": func(x []float32, y *linalg.Dense) {
			for j := range x {
				x[j] = float32(math.Ldexp(2*rng.Float64()-1, -130-rng.Intn(15)))
			}
			for i := range y.Data {
				y.Data[i] = float32(math.Ldexp(2*rng.Float64()-1, -130-rng.Intn(15)))
			}
		},
	}
	exact := func(f float64) *big.Float { return new(big.Float).SetPrec(4096).SetFloat64(f) }
	for name, gen := range gens {
		for _, k := range []int{1, 4, 7, 9, 12, 32, 33, 64, 512} {
			for trial := 0; trial < 4; trial++ {
				x, y := make([]float32, k), linalg.NewDense(rows, k)
				gen(x, y)
				sc := buildScreen(y)
				q := PrepareScan(x, nil, nil, sc)
				if q.sc == nil {
					t.Fatalf("%s k=%d: the screen is off", name, k)
				}
				var top float64
				for _, v := range x {
					top = max(top, math.Abs(float64(v)))
				}
				s := new(big.Float).SetPrec(4096).Mul(exact(top/screenLevels), exact(sc.sy))
				normX := math.Sqrt(linalg.Nrm2Sq(x))
				if name == "random" && q.errb > 0.02*normX*sc.m {
					t.Errorf("%s k=%d: errb %g is %.1f %% of ‖x‖·M", name, k, q.errb, 100*q.errb/(normX*sc.m))
				}
				for i := 0; i < rows; i++ {
					var sum int64
					for j, v := range q.xq {
						sum += int64(v) * int64(sc.q[i*sc.k8+j])
					}
					v := new(big.Float).SetPrec(4096).Mul(s, new(big.Float).SetInt64(sum))
					dot := linalg.Dot(x, y.Row(i))
					diff := v.Sub(v, exact(dot))
					if diff.Abs(diff).Cmp(exact(q.errb)) > 0 {
						t.Fatalf("%s k=%d row %d: screen %v, Dot %g: error %v over the bound %g", name, k, i, v, dot, diff, q.errb)
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
			mustEqualReference(t, x, y, 0, rows, ex, n, 0, fmt.Sprintf("identical rows n=%d", n))
			tk := NewTopK(n)
			ScanTopK(PrepareScan(x, nil, nil, buildScreen(y)), y, 0, rows, ex, tk)
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
			mustEqualReference(t, x, y, 0, rows, ex, n, 0, fmt.Sprintf("NaN rows %v", at))
			mustEqualReference(t, x, y, 1, rows-2, ex, rows, 0, fmt.Sprintf("NaN rows %v, heap never full", at))
		}
	}
}

// TestScanTopKSlabs: scanning a range in slabs into one heap — how the
// serving scorer calls it — equals scanning it at once, for every slab width
// up to two 8-row blocks and a tail, at an even and an odd k: a slab
// boundary ends the screen's run mid-range, and the next slab resumes it
// under the same heap.
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
			q := PrepareScan(x, nil, nil, buildScreen(y))
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
	q := PrepareScan(y.Row(3), nil, nil, buildScreen(y))
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
// value, the first k the query, the rest rows. k is 1 + the first byte
// mod 32, except that 0xfe and 0xff read 33 (rows padded to 40) and 513 (past
// MaxScreenK). Bytes map to small multiples of 1/8 (so ties are common)
// except the extremes: ±127 and −128 become ±Inf and NaN, and ±126, ±125,
// 124 and ±123 the screen's edges — ±2²⁴ (an outlier that coarsens every
// other value to a few levels), ±2⁻³⁰ (far below the copy's resolution),
// 2⁸⁰ (a product far past float32) and ±2⁻¹⁴⁰ (a subnormal).
func fuzzScan(data []byte) (x []float32, y *linalg.Dense, lo, hi, n int, excluded func(int) bool, ok bool) {
	if len(data) < 5 {
		return
	}
	k := 1 + int(data[0])%32
	if data[0] >= 0xfe {
		k = [2]int{33, 513}[data[0]-0xfe]
	}
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
		case 123, -123:
			vals = append(vals, float32(v/123)*0x1p-140)
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
	width := byte(k - 1)
	switch k {
	case 33:
		width = 0xfe
	case 513:
		width = 0xff
	}
	out := []byte{width, byte(n - 1), mask, byte(lo), byte(trim)}
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
// score, scanned at once and in slabs of 13 rows (a slab boundary inside
// the screen's run). No lane runs the fuzzer; the seeds run as ordinary
// tests.
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
	// The screen's seeds at k = 4, 12 and 32: near ties (1 ± 2⁻³⁰ against a
	// heap minimum of 1, after a first block that fills the heap), a query
	// of 2⁸⁰s, and NaN and Inf rows.
	for _, k := range []int{4, 12, 32} {
		ones, tie, huge := make([]int8, k), make([][]int8, 24), make([]int8, k)
		for j := range ones {
			ones[j], huge[j] = 8, 124
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
		f.Add(fuzzScanBytes(k, 2, 0, 0, 0, huge, tie[:16]))          // products past float32
		f.Add(fuzzScanBytes(k, 3, 0, 0, 0, ones, append(tie[:12:12], // a NaN, then an Inf row: no screen
			append([]int8{-128}, ones[1:]...), append([]int8{127}, ones[1:]...), tie[14], tie[15])))
	}
	// The int16 copy's edges: a zero query (the screen off), one outlier
	// that dominates max|y|, subnormal rows, the widths that pad (1, 7, 9,
	// 33) and the first past MaxScreenK (513), and ranges that are not a
	// multiple of 8.
	eighths := func(rows, k int) [][]int8 {
		out := make([][]int8, rows)
		for r := range out {
			out[r] = make([]int8, k)
			for j := range out[r] {
				out[r][j] = int8(rng.Intn(33) - 16)
			}
		}
		return out
	}
	f.Add(fuzzScanBytes(8, 2, 0, 0, 0, make([]int8, 8), eighths(24, 8))) // zero query
	outlier := eighths(24, 12)
	outlier[13][5] = 126
	f.Add(fuzzScanBytes(12, 3, 0, 0, 0, eighths(1, 12)[0], outlier)) // an outlier of 2²⁴
	sub := eighths(24, 8)
	for _, row := range sub {
		for j, v := range row {
			row[j] = []int8{123, -123, 0, 123}[(int(v)+16)%4]
		}
	}
	f.Add(fuzzScanBytes(8, 2, 0, 0, 0, eighths(1, 8)[0], sub)) // subnormal rows
	for _, k := range []int{1, 7, 9, 33} {
		f.Add(fuzzScanBytes(k, 2, 0, 0, 0, eighths(1, k)[0], eighths(30, k))) // padded rows
	}
	f.Add(fuzzScanBytes(513, 2, 0, 0, 0, eighths(1, 513)[0], eighths(12, 513))) // k8 = 520: no screen
	f.Add(fuzzScanBytes(9, 2, 0, 3, 5, eighths(1, 9)[0], eighths(40, 9)))       // [3, 35)
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, lo, hi, n, excluded, ok := fuzzScan(data)
		if !ok {
			t.Skip()
		}
		what := fmt.Sprintf("%dx%d [%d,%d) n=%d", y.Rows, y.Cols, lo, hi, n)
		mustEqualReference(t, x, y, lo, hi, excluded, n, 0, what)
		mustEqualReference(t, x, y, lo, hi, excluded, n, 13, what+" in slabs of 13")
	})
}
