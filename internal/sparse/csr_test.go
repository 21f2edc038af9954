package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomCOO builds a random sparse matrix with unique coordinates.
func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO {
	coo := NewCOO(rows, cols)
	seen := make(map[[2]int]bool, nnz)
	for coo.NNZ() < nnz {
		r, c := rng.Intn(rows), rng.Intn(cols)
		if seen[[2]int{r, c}] {
			continue
		}
		seen[[2]int{r, c}] = true
		coo.Append(r, c, float32(rng.Intn(5)+1))
	}
	return coo
}

// entriesOf lists the entries of a COO in order.
func entriesOf(c *COO) []Entry {
	es := make([]Entry, c.NNZ())
	for i := range es {
		es[i] = Entry{Row: int(c.RowIdx[i]), Col: int(c.ColIdx[i]), Val: c.Val[i]}
	}
	return es
}

// cooOf is a COO of the given dimensions holding es in order.
func cooOf(rows, cols int, es ...Entry) *COO {
	c := NewCOO(rows, cols)
	for _, e := range es {
		c.Append(e.Row, e.Col, e.Val)
	}
	return c
}

// cloneCOO is a deep copy, for a caller that hands one to NewCSR and
// still needs the other.
func cloneCOO(c *COO) *COO {
	return &COO{Rows: c.Rows, Cols: c.Cols, RowIdx: slices.Clone(c.RowIdx), ColIdx: slices.Clone(c.ColIdx), Val: slices.Clone(c.Val)}
}

// byRowCol orders entries by (row, col).
func byRowCol(a, b Entry) int { return cmp.Or(cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col)) }

// keepLast is the reference NewCSR is held to: a stable comparison sort of
// the entries by (row, col), then the last entry of each run of one
// coordinate, copied into new arrays.
func keepLast(rows, cols int, es []Entry) *CSR {
	es = slices.Clone(es)
	slices.SortStableFunc(es, byRowCol)
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	for i, e := range es {
		if i+1 < len(es) && byRowCol(e, es[i+1]) == 0 {
			continue
		}
		m.RowPtr[e.Row+1]++
		m.ColIdx = append(m.ColIdx, int32(e.Col))
		m.Val = append(m.Val, e.Val)
	}
	for u := 0; u < rows; u++ {
		m.RowPtr[u+1] += m.RowPtr[u]
	}
	return m
}

// sameCSR reports whether two matrices are equal array for array, values
// bit for bit.
func sameCSR(a, b *CSR) bool {
	return a.NumRows == b.NumRows && a.NumCols == b.NumCols &&
		slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		slices.EqualFunc(a.Val, b.Val, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// transposed reads a CSC as the CSR of the transpose: the same arrays, column
// i of R being row i of Rᵀ. The CSR's Validate and At then check the column
// view too.
func transposed(c *CSC) *CSR {
	return &CSR{NumRows: c.NumCols, NumCols: c.NumRows, RowPtr: c.ColPtr, ColIdx: c.RowIdx, Val: c.Val}
}

func TestCOOToCSRBasic(t *testing.T) {
	// The paper's Fig. 2 example: 4x4 matrix with 5 ratings.
	coo := NewCOO(4, 4)
	coo.Append(0, 1, 2)
	coo.Append(1, 0, 5)
	coo.Append(1, 3, 3)
	coo.Append(2, 2, 4)
	coo.Append(3, 1, 1)
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantPtr := []int64{0, 1, 3, 4, 5}
	for i, w := range wantPtr {
		if m.RowPtr[i] != w {
			t.Errorf("RowPtr[%d] = %d, want %d", i, m.RowPtr[i], w)
		}
	}
	wantCols := []int32{1, 0, 3, 2, 1}
	wantVals := []float32{2, 5, 3, 4, 1}
	for i := range wantCols {
		if m.ColIdx[i] != wantCols[i] || m.Val[i] != wantVals[i] {
			t.Errorf("entry %d = (%d,%g), want (%d,%g)", i, m.ColIdx[i], m.Val[i], wantCols[i], wantVals[i])
		}
	}
}

func TestCSRAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coo := randomCOO(rng, 30, 40, 200)
	dense := make([][]float32, 30)
	for i := range dense {
		dense[i] = make([]float32, 40)
	}
	for _, e := range entriesOf(coo) {
		dense[e.Row][e.Col] = e.Val
	}
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		for c := 0; c < 40; c++ {
			if got := m.At(r, c); got != dense[r][c] {
				t.Fatalf("At(%d,%d) = %g, want %g", r, c, got, dense[r][c])
			}
		}
	}
}

func TestCSRValidateRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func() *CSR {
		m, err := NewCSR(randomCOO(rng, 10, 10, 30))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name   string
		mutate func(*CSR)
	}{
		{"row ptr not starting at zero", func(m *CSR) { m.RowPtr[0] = 1 }},
		{"row ptr non-monotone", func(m *CSR) { m.RowPtr[3] = m.RowPtr[4] + 5 }},
		{"col out of range", func(m *CSR) { m.ColIdx[0] = 99 }},
		{"negative col", func(m *CSR) { m.ColIdx[0] = -1 }},
		{"wrong nnz tail", func(m *CSR) { m.RowPtr[m.NumRows] = 7 }},
		{"mismatched arrays", func(m *CSR) { m.Val = m.Val[:len(m.Val)-1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mk()
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate accepted corrupted matrix")
			}
		})
	}
}

// TestDedupKeepsFileOrder: last means the order the entries were appended
// in, at a length where an unstable sort would scramble it. 480 entries
// fall on an 8 x 8 grid, so every coordinate is rated several times.
func TestDedupKeepsFileOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	coo := NewCOO(8, 8)
	last := map[[2]int]float32{}
	for i := 0; i < 480; i++ {
		at, v := [2]int{rng.Intn(8), rng.Intn(8)}, float32(i+1)
		coo.Append(at[0], at[1], v)
		last[at] = v
	}
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != len(last) {
		t.Fatalf("%d entries, want %d", m.NNZ(), len(last))
	}
	for at, want := range last {
		if got := m.At(at[0], at[1]); got != want {
			t.Errorf("(%d,%d) = %g, want %g", at[0], at[1], got, want)
		}
	}
}

// TestNewMatrixMatchesSortedBuild: the counting build returns, array for
// array, what a stable sort and a keep-last pass return, for entries in
// any order with or without repeated coordinates.
func TestNewMatrixMatchesSortedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	withDups := func(rows, cols, n int) *COO {
		coo := NewCOO(rows, cols)
		for i := 0; i < n; i++ {
			coo.Append(rng.Intn(rows), rng.Intn(cols), float32(i))
		}
		return coo
	}
	sorted := func(coo *COO, order func(a, b Entry) int) *COO {
		es := entriesOf(coo)
		slices.SortStableFunc(es, order)
		return cooOf(coo.Rows, coo.Cols, es...)
	}
	rowMajor := sorted(randomCOO(rng, 40, 30, 300), byRowCol)
	colMajor := sorted(randomCOO(rng, 40, 30, 300), func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Col, b.Col), cmp.Compare(a.Row, b.Row))
	})
	// Row-major but for one repeated coordinate at the very end.
	almost := cloneCOO(rowMajor)
	almost.Append(int(almost.RowIdx[almost.NNZ()-1]), int(almost.ColIdx[almost.NNZ()-1]), 77)
	cases := map[string]*COO{
		"empty":           NewCOO(0, 0),
		"no entries":      NewCOO(5, 7),
		"one entry":       cooOf(3, 4, Entry{2, 1, 5}),
		"one row":         withDups(1, 50, 200),
		"one column":      withDups(50, 1, 200),
		"duplicates":      withDups(8, 8, 480),
		"row-major":       rowMajor,
		"row-major + dup": almost,
		"column-major":    colMajor,
		"shuffled":        randomCOO(rng, 60, 90, 2000),
		"trailing empty":  cooOf(9, 9, Entry{4, 4, 1}, Entry{0, 8, 2}),
	}
	for name, coo := range cases {
		want := keepLast(coo.Rows, coo.Cols, entriesOf(coo))
		got, err := NewMatrix(coo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantC := want.ToCSC()
		if !sameCSR(got.R, want) || !slices.Equal(got.C.ColPtr, wantC.ColPtr) ||
			!slices.Equal(got.C.RowIdx, wantC.RowIdx) || !slices.Equal(got.C.Val, wantC.Val) {
			t.Errorf("%s: NewMatrix differs from the sorted build:\n got %+v %+v\nwant %+v %+v", name, got.R, got.C, want, wantC)
		}
		if err := got.R.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := transposed(got.C).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := NewMatrix(&COO{Rows: 2, Cols: 2, RowIdx: []int32{2}, ColIdx: []int32{0}, Val: []float32{1}}); err == nil {
		t.Error("NewMatrix accepted an entry outside the matrix")
	}
	if _, err := NewMatrix(&COO{Rows: 2, Cols: 2, RowIdx: []int32{0}, ColIdx: []int32{0, 1}, Val: []float32{1}}); err == nil {
		t.Error("NewMatrix accepted columns of different lengths")
	}
}

// TestNewMatrixTakesOwnership: the COO is empty after the call, whatever
// order its entries were in; row-major entries become the CSR's arrays
// without a copy, and any other order gets arrays of its own.
func TestNewMatrixTakesOwnership(t *testing.T) {
	for _, tc := range []struct {
		name  string
		coo   *COO
		share bool
	}{
		{"row-major", cooOf(3, 4, Entry{0, 1, 4}, Entry{0, 3, 1}, Entry{2, 0, 5}), true},
		{"unsorted", cooOf(3, 4, Entry{2, 0, 5}, Entry{0, 1, 4}, Entry{0, 3, 1}), false},
		{"repeated", cooOf(3, 4, Entry{0, 1, 4}, Entry{0, 1, 2}, Entry{2, 0, 5}), false},
	} {
		cols, vals := &tc.coo.ColIdx[0], &tc.coo.Val[0]
		mx, err := NewMatrix(tc.coo)
		if err != nil {
			t.Fatal(err)
		}
		if tc.coo.Rows != 0 || tc.coo.Cols != 0 || tc.coo.RowIdx != nil || tc.coo.ColIdx != nil || tc.coo.Val != nil {
			t.Errorf("%s: the COO after NewMatrix is %+v, want it empty", tc.name, tc.coo)
		}
		if shared := &mx.R.ColIdx[0] == cols && &mx.R.Val[0] == vals; shared != tc.share {
			t.Errorf("%s: the CSR shares the COO's arrays: %v, want %v", tc.name, shared, tc.share)
		}
		if mx.Rows() != 3 || mx.Cols() != 4 {
			t.Errorf("%s: %dx%d, want 3x4", tc.name, mx.Rows(), mx.Cols())
		}
	}
}

// BenchmarkNewMatrix builds both views from 200k ratings as a rating file
// holds them (row-major) and as the generator draws them (shuffled). Each
// build takes a fresh copy of the COO over, made off the clock.
func BenchmarkNewMatrix(b *testing.B) {
	rowMajor := benchTriples(b, 200000).ToCOO()
	es := entriesOf(rowMajor)
	rand.New(rand.NewSource(5)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	shuffled := cooOf(rowMajor.Rows, rowMajor.Cols, es...)
	for _, bc := range []struct {
		name string
		coo  *COO
	}{{"rowmajor", rowMajor}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(bc.coo.NNZ()) * 12)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				coo := cloneCOO(bc.coo)
				b.StartTimer()
				if _, err := NewMatrix(coo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTransposeRoundTrip checks the property CSR -> CSC -> CSR == identity,
// the structural invariant the ALS solver relies on when it switches between
// the row view (update X) and the column view (update Y).
func TestTransposeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(50) + 1
		cols := rng.Intn(50) + 1
		maxNNZ := rows * cols / 2
		nnz := 0
		if maxNNZ > 0 {
			nnz = rng.Intn(maxNNZ)
		}
		m, err := NewCSR(randomCOO(rng, rows, cols, nnz))
		if err != nil {
			return false
		}
		back := transposed(transposed(m.ToCSC()).ToCSC())
		if back.NumRows != m.NumRows || back.NumCols != m.NumCols || back.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.RowPtr {
			if m.RowPtr[i] != back.RowPtr[i] {
				return false
			}
		}
		for i := range m.ColIdx {
			if m.ColIdx[i] != back.ColIdx[i] || m.Val[i] != back.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeValues checks that the CSC holds R's value at every
// coordinate: read as the CSR of Rᵀ, its (col, row) entry is R's (row, col).
func TestTransposeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := NewCSR(randomCOO(rng, 25, 35, 150))
	if err != nil {
		t.Fatal(err)
	}
	c := transposed(m.ToCSC())
	if err := c.Validate(); err != nil {
		t.Fatalf("CSC: %v", err)
	}
	for r := 0; r < m.NumRows; r++ {
		for col := 0; col < m.NumCols; col++ {
			if m.At(r, col) != c.At(col, r) {
				t.Fatalf("mismatch at (%d,%d): CSR %g, CSC %g", r, col, m.At(r, col), c.At(col, r))
			}
		}
	}
}

func TestToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewCSR(randomCOO(rng, 20, 20, 80))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewCSR(m.ToCOO())
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 20; r++ {
		for c := 0; c < 20; c++ {
			if m.At(r, c) != m2.At(r, c) {
				t.Fatalf("round-trip mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	coo := NewCOO(5, 7)
	m, err := NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
	if err := transposed(m.ToCSC()).Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if m.RowNNZ(r) != 0 {
			t.Fatalf("RowNNZ(%d) != 0", r)
		}
	}
}

func TestMatrixBundle(t *testing.T) {
	coo := NewCOO(3, 4)
	coo.Append(0, 1, 4)
	coo.Append(2, 3, 5)
	coo.Append(2, 3, 2) // duplicate, keep-last
	mx, err := NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Rows() != 3 || mx.Cols() != 4 || mx.NNZ() != 2 {
		t.Fatalf("dims/nnz = %d/%d/%d", mx.Rows(), mx.Cols(), mx.NNZ())
	}
	if mx.R.At(2, 3) != 2 || transposed(mx.C).At(3, 2) != 2 {
		t.Fatal("keep-last dedup not applied consistently across views")
	}
}

func TestAppendGrowsDims(t *testing.T) {
	coo := NewCOO(0, 0)
	coo.Append(4, 9, 1)
	if coo.Rows != 5 || coo.Cols != 10 {
		t.Fatalf("dims = %dx%d, want 5x10", coo.Rows, coo.Cols)
	}
}

// TestRangeTiles: for every size, including more parts than rows, the parts
// of Range are in order, each starts where the one before it ended, and
// together they cover [0, total) exactly.
func TestRangeTiles(t *testing.T) {
	for _, total := range []int{0, 1, 7, 12400} {
		for _, of := range []int{1, 2, 3, 8, 13} {
			next := 0
			for i := 0; i < of; i++ {
				lo, hi := Range(total, i, of)
				if lo != next || hi < lo {
					t.Fatalf("Range(%d, %d, %d) = [%d, %d), want it to start at %d", total, i, of, lo, hi, next)
				}
				next = hi
			}
			if next != total {
				t.Fatalf("Range(%d, ·, %d) covers [0, %d), want [0, %d)", total, of, next, total)
			}
		}
	}
}

// TestColRangeMatchesFilter holds ColRange to a filter oracle: every entry
// of a column in [lo, hi), renumbered to col − lo, in arrays with no slack.
func TestColRangeMatchesFilter(t *testing.T) {
	const rows, cols = 24, 15
	rng := rand.New(rand.NewSource(5))
	coo := randomCOO(rng, 20, cols, 90) // rows 20..23 stay empty
	coo.Rows = rows
	coo.Append(3, cols-1, 2) // the last column is rated for sure
	es := entriesOf(coo)
	m, err := NewCSR(cloneCOO(coo))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lo, hi int }{
		{0, 0}, {6, 6}, {cols, cols}, // empty ranges
		{0, cols},        // the whole matrix
		{cols - 1, cols}, // the last column alone
		{0, 1}, {4, 11},
		{9, cols + 3}, // past NumCols: nothing more to keep
	} {
		var want []Entry
		for _, e := range es {
			if e.Col >= c.lo && e.Col < c.hi {
				want = append(want, Entry{Row: e.Row, Col: e.Col - c.lo, Val: e.Val})
			}
		}
		got := m.ColRange(c.lo, c.hi)
		if ref := keepLast(rows, c.hi-c.lo, want); !sameCSR(got, ref) {
			t.Errorf("ColRange(%d, %d) = %+v, want %+v", c.lo, c.hi, got, ref)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("ColRange(%d, %d): %v", c.lo, c.hi, err)
		}
		if cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
			t.Errorf("ColRange(%d, %d): cap %d/%d for len %d: slack kept", c.lo, c.hi,
				cap(got.ColIdx), cap(got.Val), len(got.Val))
		}
	}
}

// ColRange returns columns [lo, hi) as a new matrix of the same rows: only
// the entries whose column is in the range, renumbered to col − lo, with
// NumCols = hi − lo. Unlike RowRange it copies, into arrays sized exactly
// (cap == len), so the result keeps none of m alive. hi may exceed
// NumCols. It is the plain cut Gaps.ColRange is held to.
func (m *CSR) ColRange(lo, hi int) *CSR {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("sparse: column range [%d,%d) is not 0 <= lo <= hi", lo, hi))
	}
	out := &CSR{NumRows: m.NumRows, NumCols: hi - lo, RowPtr: make([]int64, m.NumRows+1)}
	// Rows are column-sorted, so each row's entries in range are one run.
	span := func(u int) (int, int) {
		cols := m.RowCols(u)
		a, _ := slices.BinarySearchFunc(cols, lo, cmpCol)
		b, _ := slices.BinarySearchFunc(cols, hi, cmpCol)
		return int(m.RowPtr[u]) + a, int(m.RowPtr[u]) + b
	}
	for u := 0; u < m.NumRows; u++ {
		a, b := span(u)
		out.RowPtr[u+1] = out.RowPtr[u] + int64(b-a)
	}
	nnz := out.RowPtr[m.NumRows]
	out.ColIdx = make([]int32, nnz)
	if m.Val != nil {
		out.Val = make([]float32, nnz)
	}
	for u := 0; u < m.NumRows; u++ {
		a, b := span(u)
		p := out.RowPtr[u]
		for q := a; q < b; q++ {
			out.ColIdx[p] = m.ColIdx[q] - int32(lo)
			p++
		}
		if m.Val != nil {
			copy(out.Val[out.RowPtr[u]:], m.Val[a:b])
		}
	}
	return out
}

// cmpCol orders a stored column index against an int bound.
func cmpCol(c int32, bound int) int { return cmp.Compare(int(c), bound) }
