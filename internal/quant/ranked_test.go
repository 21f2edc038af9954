package quant

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/metrics"
)

// mustEqualFullScan is the exactness oracle: the ranked scan's result must
// be the natural-order full scan's, item for item and score for score. It
// returns how many rows the ranked scan scored.
func mustEqualFullScan(t testing.TB, m *Matrix, x []float32, excluded func(int) bool, n int, what string) int {
	t.Helper()
	want := m.TopN(x, excluded, n)
	got, scored := Rank(m).TopN(x, excluded, n)
	if scored < 0 || scored > m.Rows {
		t.Fatalf("%s: scored %d of %d rows", what, scored, m.Rows)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d (scored %d of %d rows)", what, len(got), len(want), scored, m.Rows)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: got %+v, want %+v (scored %d of %d rows)", what, i, got[i], want[i], scored, m.Rows)
		}
	}
	return scored
}

// zipfDense scales row i of a random non-negative matrix by (1+rank)^-0.8
// for a shuffled rank: norms spread the way implicit-ALS item factors
// follow popularity, and rows share a direction the way trained factors do
// (independent signed rows at k = 64 are near-orthogonal to any query, and
// every score sits far under its bound).
func zipfDense(rng *rand.Rand, rows, cols int) *linalg.Dense {
	d := linalg.NewDense(rows, cols)
	for r, rank := range rng.Perm(rows) {
		scale := math.Pow(float64(1+rank), -0.8)
		for c := 0; c < cols; c++ {
			d.Data[r*cols+c] = float32(math.Abs(rng.NormFloat64()) * scale)
		}
	}
	return d
}

func randQuery(rng *rand.Rand, k int) []float32 {
	x := make([]float32, k)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	return x
}

// rankedCase is one matrix/query pair of the property test. wantAllRows
// marks cases where the stop rule must never fire.
type rankedCase struct {
	name        string
	d           *linalg.Dense
	x           []float32
	wantAllRows bool
}

func rankedCases(rng *rand.Rand, rows, k int) []rankedCase {
	random := randDense(rng, rows, k, 2.0)
	zipf := zipfDense(rng, rows, k)

	identical := linalg.NewDense(rows, k)
	for r := 0; r < rows; r++ {
		copy(identical.Row(r), random.Row(0))
	}

	// Copies of one strong row scattered over the catalog, more of them
	// than any small n: the n-th place falls inside a run of exact ties
	// that only the item index resolves.
	dup := zipfDense(rng, rows, k)
	for _, r := range []int{rows - 1, rows / 2, 7, rows / 3, 2, rows - 9, 40, 41, 42, 100, 150, 3} {
		copy(dup.Row(r), zipf.Row(0))
	}

	zeros := zipfDense(rng, rows, k)
	for r := 0; r < rows; r += 3 {
		clear(zeros.Row(r))
	}

	positive := randDense(rng, rows, k, 1.0)
	for i, v := range positive.Data {
		positive.Data[i] = float32(math.Abs(float64(v))) + 0.01
	}
	negX := make([]float32, k)
	for i := range negX {
		negX[i] = -0.5 - rng.Float32()
	}

	// A user factor built from consumed items, as a trained one is.
	liked := make([]float32, k)
	for _, r := range rng.Perm(rows)[:5] {
		for c, v := range zipf.Row(r) {
			liked[c] += v
		}
	}

	return []rankedCase{
		{name: "random", d: random, x: randQuery(rng, k)},
		{name: "zipf", d: zipf, x: randQuery(rng, k)},
		{name: "zipf-aligned", d: zipf, x: liked},
		{name: "identical-rows", d: identical, x: randQuery(rng, k), wantAllRows: true},
		{name: "duplicates-at-nth", d: dup, x: slices.Clone(zipf.Row(0))},
		{name: "zero-rows", d: zeros, x: randQuery(rng, k)},
		{name: "zero-query", d: zipf, x: make([]float32, k), wantAllRows: true},
		{name: "all-negative-scores", d: positive, x: negX, wantAllRows: true},
	}
}

// TestRankedMatchesFullScan is the exactness property over precisions,
// widths (one, odd, the block width's neighbours), heap sizes and
// excluders. It also checks that the rule does fire where it should, so the
// equality is not vacuous.
func TestRankedMatchesFullScan(t *testing.T) {
	const rows = 203 // not a multiple of the 4-row block
	prunedSomewhere := false
	for _, prec := range []Precision{I8, F16} {
		for _, k := range []int{1, 3, 8, 64, 65} {
			rng := rand.New(rand.NewSource(int64(1000*int(prec) + k)))
			for _, c := range rankedCases(rng, rows, k) {
				m, err := EncodeDense(c.d, prec)
				if err != nil {
					t.Fatal(err)
				}
				top := Rank(m).ID[:rows/4]
				excluders := []struct {
					name string
					f    func(int) bool
				}{
					{"none", nil},
					{"sparse", func(i int) bool { return i%7 == 3 }},
					{"high-norm", func(i int) bool { return slices.Contains(top, int32(i)) }},
				}
				for _, n := range []int{1, 10, rows + 5} {
					for _, ex := range excluders {
						what := fmt.Sprintf("%v k=%d %s n=%d exclude=%s", prec, k, c.name, n, ex.name)
						scored := mustEqualFullScan(t, m, c.x, ex.f, n, what)
						if scored < rows {
							prunedSomewhere = true
						}
						if (c.wantAllRows || n > rows) && scored != rows {
							t.Errorf("%s: scored %d of %d rows, the rule must not fire here", what, scored, rows)
						}
						if c.name == "zipf-aligned" && k >= 8 && n == 10 && ex.f == nil && scored > rows/2 {
							t.Errorf("%s: scored %d of %d rows, expected the skewed norms to prune most", what, scored, rows)
						}
					}
				}
			}
		}
	}
	if !prunedSomewhere {
		t.Fatal("the stop rule never fired: the property was checked on full scans only")
	}
}

// TestRankedIdenticalRowsAscending: when every score and every bound ties,
// nothing may be pruned and the lower indices win in order.
func TestRankedIdenticalRowsAscending(t *testing.T) {
	d := linalg.NewDense(50, 4)
	for r := 0; r < d.Rows; r++ {
		copy(d.Row(r), []float32{0.5, -1, 0.25, 2})
	}
	for _, prec := range []Precision{I8, F16} {
		m, _ := EncodeDense(d, prec)
		got, scored := Rank(m).TopN([]float32{1, 1, 1, 1}, func(i int) bool { return i == 1 }, 5)
		if scored != d.Rows {
			t.Errorf("%v: scored %d of %d tied rows", prec, scored, d.Rows)
		}
		for i, want := range []int{0, 2, 3, 4, 5} {
			if got[i].Item != want {
				t.Errorf("%v: rank %d = item %d, want %d", prec, i, got[i].Item, want)
			}
		}
	}
}

// tightF16Case builds the fp16 worst case for the bound's rounding slack:
// k = 1024 constant query components against rows of ±max-magnitude
// entries, where Cauchy–Schwarz holds with equality in real arithmetic and
// a float32 accumulation can land above it. Half-support rows at twice the
// scale carry a larger bound and (nearly) the same score, so they fill the
// heap first and put its minimum right at the full rows' bound.
func tightF16Case(c float32, ulps int) (*linalg.Dense, []float32) {
	const k, rows = 1024, 24
	d := linalg.NewDense(rows, k)
	for r := 0; r < rows; r++ {
		mag := float32(3)
		for u := 0; u < (r/2)%ulps; u++ {
			mag = math.Nextafter32(mag, 0)
		}
		row := d.Row(r)
		if r%2 == 0 {
			for j := 0; j < k/2; j++ {
				row[2*j] = 2 * mag
			}
		} else {
			for j := range row {
				row[j] = mag
			}
		}
	}
	x := make([]float32, k)
	for j := range x {
		x[j] = c
	}
	return d, x
}

func TestRankedF16RoundingSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		c := 0.05 + rng.Float32()
		if trial%2 == 1 {
			c = -c
		}
		d, x := tightF16Case(c, 1+trial%4)
		if trial%2 == 1 {
			for i := range d.Data {
				d.Data[i] = -d.Data[i]
			}
		}
		m, err := EncodeDense(d, F16)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 3, 12} {
			mustEqualFullScan(t, m, x, nil, n, fmt.Sprintf("trial %d c=%g n=%d", trial, c, n))
		}
	}
}

// TestRankedOutOfRangeF16: where float32 arithmetic leaves its normal
// range, a relative error bound no longer dominates the computed score and
// the scan must not prune on it. Each case is the smallest one in which a
// row the full scan returns has a computed score above its real-number
// Cauchy–Schwarz bound; n = 1, and the row that must win is row 0.
func TestRankedOutOfRangeF16(t *testing.T) {
	sub := float32(0x1p-149) // smallest subnormal: x·0.7 rounds up to it
	cases := []struct {
		name string
		x    []float32
		rows [][]float32
	}{
		{
			// Products of a subnormal query component round up: row 0
			// computes 8 units where its bound allows 5.95, row 1 is an
			// exact 7.2 in between.
			name: "subnormal products",
			x:    []float32{sub, sub, sub, sub, sub, sub, sub, sub},
			rows: [][]float32{
				{0x1p100, 0.7 * 0x1p100, 0.7 * 0x1p100, 0.7 * 0x1p100, 0.7 * 0x1p100, 0.7 * 0x1p100, 0.7 * 0x1p100, 0.7 * 0x1p100},
				{0.9 * 0x1p100, 0.9 * 0x1p100, 0.9 * 0x1p100, 0.9 * 0x1p100, 0.9 * 0x1p100, 0.9 * 0x1p100, 0.9 * 0x1p100, 0.9 * 0x1p100},
			},
		},
		{
			// A partial sum overflows before the cancelling term arrives:
			// row 0 computes +Inf where the real score is 2²⁷.
			name: "overflowing partial sum",
			x:    []float32{0x1p127, 0x1p127, -0x1p127},
			rows: [][]float32{
				{0x1p-100, 0x1p-100, 0x1p-100},
				{0x1p-98, 0, 0},
			},
		},
		{
			// Both scale products overflow to +Inf; the tie goes to the
			// lower index, whose finite bound is under the heap's +Inf.
			name: "overflowing scale product",
			x:    []float32{0x1p100},
			rows: [][]float32{{0x1p30}, {0x1p40}},
		},
		{
			// The scale product underflows and rounds 2.8 units up to 3,
			// tying row 1's 2.9-rounded-to-3 from under a bound of 2.8.
			name: "underflowing scale product",
			x:    []float32{0.7 * 0x1p-20, 0.1 * 0x1p-22},
			rows: [][]float32{{0x1p-127, 0}, {0x1p-127, 0x1p-127}},
		},
	}
	for _, c := range cases {
		d := linalg.NewDense(len(c.rows), len(c.x))
		for r, row := range c.rows {
			copy(d.Row(r), row)
		}
		m, err := EncodeDense(d, F16)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.TopN(c.x, nil, 1); len(got) != 1 || got[0].Item != 0 {
			t.Fatalf("%s: the full scan returns %+v, the case no longer exercises the guard", c.name, got)
		}
		mustEqualFullScan(t, m, c.x, nil, 1, c.name)
	}
}

// TestRankInvariants pins what Rank promises: ID is a permutation, Bound is
// non-increasing and no smaller than the float64 bound of the row it
// covers, ties keep source order, payload and scales are copies of the
// source rows, and scores are bit-identical to the source's.
func TestRankInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := zipfDense(rng, 301, 9)
	copy(d.Row(200), d.Row(20)) // an exact bound tie
	clear(d.Row(5))
	x := randQuery(rng, 9)
	for _, prec := range []Precision{I8, F16} {
		m, err := EncodeDense(d, prec)
		if err != nil {
			t.Fatal(err)
		}
		if prec == I8 {
			// EncodeDense clamps to ±127; a decoded checkpoint can carry
			// −128, and the bound and the kernels must hold for it too.
			fill(m.I8[120*m.Cols:][:m.Cols], -128)
			m.I8[40*m.Cols+3] = -128
		}
		r := Rank(m)
		if r.Prec != m.Prec || r.Rows != m.Rows || r.Cols != m.Cols || r.MaxAbsErr != m.MaxAbsErr {
			t.Fatalf("%v: header %+v does not match the source", prec, r)
		}
		seen := make([]bool, m.Rows)
		for p, id := range r.ID {
			if id < 0 || int(id) >= m.Rows || seen[id] {
				t.Fatalf("%v: ID is not a permutation at position %d (%d)", prec, p, id)
			}
			seen[id] = true
		}
		qr := m.Prepare(x)
		for p, id := range r.ID {
			i, k := int(id), m.Cols
			var sumSq float64
			for c := 0; c < k; c++ {
				v := float64(payloadAt(m, i*k+c))
				sumSq += v * v
			}
			if exact := float64(m.Scales[i]) * math.Sqrt(sumSq); float64(r.Bound[p]) < exact {
				t.Errorf("%v: Bound[%d] = %g is under the row's norm %g", prec, p, r.Bound[p], exact)
			}
			if p > 0 {
				if r.Bound[p] > r.Bound[p-1] {
					t.Errorf("%v: Bound increases at position %d", prec, p)
				}
				if r.Bound[p] == r.Bound[p-1] && r.ID[p] < r.ID[p-1] {
					t.Errorf("%v: equal bounds at %d, %d out of source order", prec, p-1, p)
				}
			}
			if r.perm.Scales[p] != m.Scales[i] {
				t.Errorf("%v: position %d scale differs from source row %d", prec, p, i)
			}
			switch prec {
			case I8:
				if !slices.Equal(r.perm.I8[p*k:][:k], m.I8[i*k:][:k]) {
					t.Errorf("%v: position %d payload differs from source row %d", prec, p, i)
				}
			case F16:
				if !slices.Equal(r.perm.F16[p*k:][:k], m.F16[i*k:][:k]) {
					t.Errorf("%v: position %d payload differs from source row %d", prec, p, i)
				}
			}
			if got, want := r.perm.Score(qr, p), m.Score(qr, i); got != want {
				t.Errorf("%v: position %d scores %v, source row %d scores %v", prec, p, got, i, want)
			}
		}

		mustEqualFullScan(t, m, x, nil, 8, prec.String()+" with the poked rows")

		// A shard replica ranks its slice of the catalog's encoding: the
		// slice's results are the full catalog's rows, bit for bit.
		lo, hi := 100, 250
		got, _ := Rank(m.Slice(lo, hi)).TopN(x, nil, 8)
		want := m.TopN(x, func(i int) bool { return i < lo || i >= hi }, 8)
		for i := range want {
			if got[i].Item+lo != want[i].Item || got[i].Score != want[i].Score {
				t.Errorf("%v: slice rank %d: got %+v (+%d), want %+v", prec, i, got[i], lo, want[i])
			}
		}
	}
}

// payloadAt reads one payload element as a number, whichever precision
// holds it.
func payloadAt(q *Matrix, at int) float32 {
	if q.Prec == I8 {
		return float32(q.I8[at])
	}
	return linalg.F16ToF32(q.F16[at])
}

// TestRankedScanSlabs: scanning in slabs, as the serving layer does, gives
// the single-call result, and a short count ends the scan for good.
func TestRankedScanSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m, _ := EncodeDense(zipfDense(rng, 1000, 16), I8)
	r := Rank(m)
	x := randQuery(rng, 16)
	want, wantScored := r.TopN(x, nil, 10)
	for _, slab := range []int{1, 3, 4, 64, 257} {
		tk := metrics.NewTopK(10)
		qr := r.Prepare(x)
		total := 0
		for lo := 0; lo < r.Rows; lo += slab {
			hi := min(lo+slab, r.Rows)
			n := r.ScanTopK(qr, lo, hi, nil, tk)
			total += n
			if n < hi-lo {
				break
			}
		}
		if got := tk.Drain(); !slices.Equal(got, want) {
			t.Errorf("slab %d: got %v, want %v", slab, got, want)
		}
		// The rule is checked per 4-row block, so a slabbed scan can only
		// stop earlier than a single call, never later than one block past.
		if total > wantScored || total < wantScored-4 {
			t.Errorf("slab %d: scored %d rows, single call scored %d", slab, total, wantScored)
		}
	}
	if n := r.ScanTopK(r.Prepare(x), 5, 5, nil, metrics.NewTopK(1)); n != 0 {
		t.Errorf("empty range scored %d rows", n)
	}
}

// TestRankedScanZeroAllocs: the ranked scan keeps the natural-order scan's
// zero-allocation discipline.
func TestRankedScanZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := zipfDense(rng, 4096, 16)
	x := randQuery(rng, 16)
	excluded := func(i int) bool { return i%17 == 0 }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, prec := range []Precision{F16, I8} {
		m, _ := EncodeDense(d, prec)
		r := Rank(m)
		qr := r.Prepare(x)
		tk := metrics.NewTopK(10)
		allocs := testing.AllocsPerRun(10, func() {
			tk.Reset()
			r.ScanTopK(qr, 0, r.Rows, excluded, tk)
		})
		if allocs != 0 {
			t.Errorf("%v: ranked ScanTopK allocates %v times per scan, want 0", prec, allocs)
		}
	}
}

// fuzzMatrix decodes fuzz bytes into a small matrix, a query, a heap size
// and an exclusion mask. Layout: [precision, k, n, mask seed] then two
// bytes per value — an int8 mantissa and an exponent pick that reaches the
// ranges where float32 products go subnormal or overflow. The first k
// values are the query, the rest fill rows.
func fuzzMatrix(data []byte) (prec Precision, d *linalg.Dense, x []float32, n int, excluded func(int) bool, ok bool) {
	if len(data) < 4 {
		return
	}
	prec = I8
	if data[0]&1 == 1 {
		prec = F16
	}
	k := 1 + int(data[1])%9
	n = 1 + int(data[2])%12
	mask := data[3]
	exps := [...]int{0, 0, 0, -12, 12, -45, 45, -110, 110}
	var vals []float32
	for body := data[4:]; len(body) >= 2; body = body[2:] {
		vals = append(vals, float32(math.Ldexp(float64(int8(body[0])), exps[int(body[1])%len(exps)])))
	}
	rows := len(vals)/k - 1
	if rows < 1 || rows > 64 {
		return
	}
	x = vals[:k]
	d = linalg.NewDenseFrom(rows, k, vals[k:(rows+1)*k])
	if mask != 0 {
		excluded = func(i int) bool { return (uint(mask)>>(uint(i)%8))&1 == 1 }
	}
	return prec, d, x, n, excluded, true
}

// fuzzBytes is fuzzMatrix's inverse for seeding: every value at exponent 0.
func fuzzBytes(prec Precision, k, n int, mask byte, x []int8, rows [][]int8) []byte {
	p := byte(0)
	if prec == F16 {
		p = 1
	}
	out := []byte{p, byte(k - 1), byte(n - 1), mask}
	for _, v := range x {
		out = append(out, byte(v), 0)
	}
	for _, r := range rows {
		for _, v := range r {
			out = append(out, byte(v), 0)
		}
	}
	return out
}

func FuzzRankedMatchesFullScan(f *testing.F) {
	same := [][]int8{{3, -2, 5}, {3, -2, 5}, {3, -2, 5}, {3, -2, 5}, {3, -2, 5}, {3, -2, 5}}
	straddle := [][]int8{{9, 9, 9}, {1, 0, 0}, {9, 9, 9}, {0, 2, 0}, {9, 9, 9}, {9, 9, 9}, {1, 1, 1}}
	zeros := [][]int8{{0, 0, 0}, {4, 4, 4}, {0, 0, 0}, {1, 2, 3}, {0, 0, 0}}
	positive := [][]int8{{1, 2, 3}, {7, 7, 7}, {2, 2, 2}, {127, 127, 127}, {5, 1, 1}}
	for _, prec := range []Precision{I8, F16} {
		f.Add(fuzzBytes(prec, 3, 2, 0, []int8{1, 1, 1}, same))
		f.Add(fuzzBytes(prec, 3, 3, 0, []int8{1, 1, 1}, straddle))
		f.Add(fuzzBytes(prec, 3, 2, 0b00000010, []int8{1, -1, 2}, zeros))
		f.Add(fuzzBytes(prec, 3, 2, 0, []int8{0, 0, 0}, positive))          // all-zero query
		f.Add(fuzzBytes(prec, 3, 2, 0, []int8{-1, -2, -3}, positive))       // all-negative scores
		f.Add(fuzzBytes(prec, 3, 1, 0b00001000, []int8{1, 1, 1}, positive)) // the top row excluded
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prec, d, x, n, excluded, ok := fuzzMatrix(data)
		if !ok {
			t.Skip()
		}
		m, err := EncodeDense(d, prec)
		if err != nil {
			t.Skip() // Ldexp overflowed a value to ±Inf
		}
		qr := m.Prepare(x)
		for i := 0; i < m.Rows; i++ {
			if math.IsNaN(m.Score(qr, i)) {
				t.Skip() // Inf−Inf in the float32 kernel: no order to compare
			}
		}
		mustEqualFullScan(t, m, x, excluded, n, fmt.Sprintf("%v %dx%d n=%d", prec, m.Rows, m.Cols, n))
	})
}
