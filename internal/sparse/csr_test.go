package sparse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// randomCOO builds a random sparse matrix with unique coordinates.
func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO {
	coo := NewCOO(rows, cols)
	seen := make(map[[2]int]bool, nnz)
	for len(coo.Entries) < nnz {
		r, c := rng.Intn(rows), rng.Intn(cols)
		if seen[[2]int{r, c}] {
			continue
		}
		seen[[2]int{r, c}] = true
		coo.Append(r, c, float32(rng.Intn(5)+1))
	}
	return coo
}

func TestCOOToCSRBasic(t *testing.T) {
	// The paper's Fig. 2 example: 4x4 matrix with 5 ratings.
	coo := NewCOO(4, 4)
	coo.Append(0, 1, 2)
	coo.Append(1, 0, 5)
	coo.Append(1, 3, 3)
	coo.Append(2, 2, 4)
	coo.Append(3, 1, 1)
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatalf("ToCSR: %v", err)
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
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	dense := make([][]float32, 30)
	for i := range dense {
		dense[i] = make([]float32, 40)
	}
	for _, e := range coo.Entries {
		dense[e.Row][e.Col] = e.Val
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
		m, err := randomCOO(rng, 10, 10, 30).ToCSR()
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

func TestDuplicateRejected(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Append(0, 0, 1)
	coo.Append(0, 0, 2)
	if _, err := coo.ToCSR(); err == nil {
		t.Fatal("ToCSR accepted duplicate coordinates")
	}
}

func TestDedupPolicies(t *testing.T) {
	mk := func() *COO {
		coo := NewCOO(2, 2)
		coo.Append(0, 0, 1)
		coo.Append(1, 1, 9)
		coo.Append(0, 0, 2)
		return coo
	}
	cases := []struct {
		policy DedupPolicy
		want   float32
	}{
		{DedupKeepLast, 2},
		{DedupKeepFirst, 1},
		{DedupSum, 3},
	}
	for _, tc := range cases {
		coo := mk()
		coo.Dedup(tc.policy)
		if len(coo.Entries) != 2 {
			t.Fatalf("policy %v: %d entries after dedup, want 2", tc.policy, len(coo.Entries))
		}
		m, err := coo.ToCSR()
		if err != nil {
			t.Fatalf("policy %v: %v", tc.policy, err)
		}
		if got := m.At(0, 0); got != tc.want {
			t.Errorf("policy %v: At(0,0) = %g, want %g", tc.policy, got, tc.want)
		}
	}
}

// TestDedupKeepsFileOrder: first and last mean the order the entries were
// appended in, at a length where an unstable sort would scramble it. 480
// entries fall on an 8 x 8 grid, so every coordinate is rated several times.
func TestDedupKeepsFileOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	coo := NewCOO(8, 8)
	first, last, sum := map[[2]int]float32{}, map[[2]int]float32{}, map[[2]int]float32{}
	for i := 0; i < 480; i++ {
		at, v := [2]int{rng.Intn(8), rng.Intn(8)}, float32(i+1)
		coo.Append(at[0], at[1], v)
		if _, seen := first[at]; !seen {
			first[at] = v
		}
		last[at] = v
		sum[at] += v
	}
	for _, tc := range []struct {
		name   string
		policy DedupPolicy
		want   map[[2]int]float32
	}{{"keep last", DedupKeepLast, last}, {"keep first", DedupKeepFirst, first}, {"sum", DedupSum, sum}} {
		c := &COO{Rows: 8, Cols: 8, Entries: slices.Clone(coo.Entries)}
		c.Dedup(tc.policy)
		if len(c.Entries) != len(tc.want) {
			t.Fatalf("%s: %d entries, want %d", tc.name, len(c.Entries), len(tc.want))
		}
		for _, e := range c.Entries {
			if want := tc.want[[2]int{e.Row, e.Col}]; e.Val != want {
				t.Errorf("%s: (%d,%d) = %g, want %g", tc.name, e.Row, e.Col, e.Val, want)
			}
		}
	}
}

// sortedBuild is the reference NewMatrix is held to: the comparison sort
// and the per-row sort it replaced.
func sortedBuild(t *testing.T, coo *COO) *Matrix {
	t.Helper()
	c := &COO{Rows: coo.Rows, Cols: coo.Cols, Entries: slices.Clone(coo.Entries)}
	c.Dedup(DedupKeepLast)
	r, err := c.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return &Matrix{R: r, C: r.ToCSC()}
}

// TestNewMatrixMatchesSortedBuild: the counting build returns, array for
// array, what stable Dedup + ToCSR + ToCSC return, for entries in any order
// with or without repeated coordinates, and leaves its argument alone.
func TestNewMatrixMatchesSortedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	withDups := func(rows, cols, n int) *COO {
		coo := NewCOO(rows, cols)
		for i := 0; i < n; i++ {
			coo.Append(rng.Intn(rows), rng.Intn(cols), float32(i))
		}
		return coo
	}
	rowMajor := randomCOO(rng, 40, 30, 300)
	rowMajor.SortRowMajor()
	colMajor := randomCOO(rng, 40, 30, 300)
	colMajor.SortColMajor()
	// Row-major but for one repeated coordinate at the very end.
	almost := &COO{Rows: 40, Cols: 30, Entries: slices.Clone(rowMajor.Entries)}
	almost.Append(almost.Entries[len(almost.Entries)-1].Row, almost.Entries[len(almost.Entries)-1].Col, 77)
	cases := map[string]*COO{
		"empty":           NewCOO(0, 0),
		"no entries":      NewCOO(5, 7),
		"one entry":       {Rows: 3, Cols: 4, Entries: []Entry{{2, 1, 5}}},
		"one row":         withDups(1, 50, 200),
		"one column":      withDups(50, 1, 200),
		"duplicates":      withDups(8, 8, 480),
		"row-major":       rowMajor,
		"row-major + dup": almost,
		"column-major":    colMajor,
		"shuffled":        randomCOO(rng, 60, 90, 2000),
		"trailing empty":  {Rows: 9, Cols: 9, Entries: []Entry{{4, 4, 1}, {0, 8, 2}}},
	}
	for name, coo := range cases {
		before := slices.Clone(coo.Entries)
		got, err := NewMatrix(coo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(coo.Entries, before) {
			t.Errorf("%s: NewMatrix reordered its argument", name)
		}
		want := sortedBuild(t, coo)
		if !slices.Equal(got.R.RowPtr, want.R.RowPtr) || !slices.Equal(got.R.ColIdx, want.R.ColIdx) || !slices.Equal(got.R.Val, want.R.Val) ||
			!slices.Equal(got.C.ColPtr, want.C.ColPtr) || !slices.Equal(got.C.RowIdx, want.C.RowIdx) || !slices.Equal(got.C.Val, want.C.Val) ||
			got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Errorf("%s: NewMatrix differs from the sorted build:\n got %+v %+v\nwant %+v %+v", name, got.R, got.C, want.R, want.C)
		}
		if err := got.R.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := got.C.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := NewMatrix(&COO{Rows: 2, Cols: 2, Entries: []Entry{{2, 0, 1}}}); err == nil {
		t.Error("NewMatrix accepted an entry outside the matrix")
	}
}

// BenchmarkNewMatrix builds both views from 200k ratings as a rating file
// holds them (row-major) and as the generator draws them (shuffled).
func BenchmarkNewMatrix(b *testing.B) {
	rowMajor := benchTriples(b, 200000).ToCOO()
	shuffled := &COO{Rows: rowMajor.Rows, Cols: rowMajor.Cols, Entries: slices.Clone(rowMajor.Entries)}
	rand.New(rand.NewSource(5)).Shuffle(len(shuffled.Entries), func(i, j int) {
		shuffled.Entries[i], shuffled.Entries[j] = shuffled.Entries[j], shuffled.Entries[i]
	})
	for _, bc := range []struct {
		name string
		coo  *COO
	}{{"rowmajor", rowMajor}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.coo.Entries)) * int64(unsafe.Sizeof(Entry{})))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewMatrix(bc.coo); err != nil {
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
		m, err := randomCOO(rng, rows, cols, nnz).ToCSR()
		if err != nil {
			return false
		}
		back := m.ToCSC().ToCSR()
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

// TestTransposeValues checks that CSC.At agrees with CSR.At everywhere.
func TestTransposeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := randomCOO(rng, 25, 35, 150).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	c := m.ToCSC()
	if err := c.Validate(); err != nil {
		t.Fatalf("CSC.Validate: %v", err)
	}
	for r := 0; r < m.NumRows; r++ {
		for col := 0; col < m.NumCols; col++ {
			if m.At(r, col) != c.At(r, col) {
				t.Fatalf("mismatch at (%d,%d): CSR %g, CSC %g", r, col, m.At(r, col), c.At(r, col))
			}
		}
	}
}

func TestToCOORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := randomCOO(rng, 20, 20, 80).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.ToCOO().ToCSR()
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

func TestCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := randomCOO(rng, 10, 10, 20).ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	cl := m.Clone()
	cl.Val[0] = 99
	cl.ColIdx[0] = 3
	cl.RowPtr[1] = 77
	if m.Val[0] == 99 || m.RowPtr[1] == 77 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEmptyMatrix(t *testing.T) {
	coo := NewCOO(5, 7)
	m, err := coo.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
	c := m.ToCSC()
	if err := c.Validate(); err != nil {
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
	if mx.R.At(2, 3) != 2 || mx.C.At(2, 3) != 2 {
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
