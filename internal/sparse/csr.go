package sparse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// CSR is a compressed-sparse-row matrix (Fig. 2 of the paper): Val stores the
// nonzero ratings row by row, ColIdx the column (item) index of each nonzero,
// and RowPtr[u]..RowPtr[u+1] delimits row u's span in the two arrays.
//
// RowPtr uses int64 so that full-size Netflix/YahooMusic nonzero counts
// (~10^8) stay comfortably indexable; ColIdx uses int32 to match the compact
// device-side layout the paper's kernels assume.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int64
	ColIdx           []int32
	Val              []float32
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of nonzeros in row u (the paper's omegaSize).
func (m *CSR) RowNNZ(u int) int { return int(m.RowPtr[u+1] - m.RowPtr[u]) }

// Row returns the column indices and values of row u as sub-slices backed by
// the matrix storage. Callers must not modify them.
func (m *CSR) Row(u int) (cols []int32, vals []float32) {
	lo, hi := m.RowPtr[u], m.RowPtr[u+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// RowRange returns a zero-copy view of rows [lo, hi): the nonzero storage is
// shared with m (only the small row-pointer slice is rebased), and column
// indices keep their original meaning. The distributed trainer and the
// cluster simulation both partition a side matrix this way.
func (m *CSR) RowRange(lo, hi int) *CSR {
	view := &CSR{
		NumRows: hi - lo,
		NumCols: m.NumCols,
		RowPtr:  make([]int64, hi-lo+1),
	}
	base := m.RowPtr[lo]
	for j := 0; j <= hi-lo; j++ {
		view.RowPtr[j] = m.RowPtr[lo+j] - base
	}
	view.ColIdx = m.ColIdx[base:m.RowPtr[hi]]
	view.Val = m.Val[base:m.RowPtr[hi]]
	return view
}

// ColRange returns columns [lo, hi) as a new matrix of the same rows: only
// the entries whose column is in the range, renumbered to col − lo, with
// NumCols = hi − lo. Unlike RowRange it copies, into arrays sized exactly
// (cap == len), so the result keeps none of m alive. A serving shard cuts
// the rated set down to its item slice this way. hi may exceed NumCols.
func (m *CSR) ColRange(lo, hi int) *CSR {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("sparse: column range [%d,%d) is not 0 <= lo <= hi", lo, hi))
	}
	out := &CSR{NumRows: m.NumRows, NumCols: hi - lo, RowPtr: make([]int64, m.NumRows+1)}
	// Rows are column-sorted, so each row's entries in range are one run.
	span := func(u int) (int, int) {
		cols, _ := m.Row(u)
		a, _ := slices.BinarySearchFunc(cols, lo, cmpCol)
		b, _ := slices.BinarySearchFunc(cols, hi, cmpCol)
		return int(m.RowPtr[u]) + a, int(m.RowPtr[u]) + b
	}
	for u := 0; u < m.NumRows; u++ {
		a, b := span(u)
		out.RowPtr[u+1] = out.RowPtr[u] + int64(b-a)
	}
	nnz := out.RowPtr[m.NumRows]
	out.ColIdx, out.Val = make([]int32, nnz), make([]float32, nnz)
	for u := 0; u < m.NumRows; u++ {
		a, b := span(u)
		p := out.RowPtr[u]
		for q := a; q < b; q++ {
			out.ColIdx[p] = m.ColIdx[q] - int32(lo)
			p++
		}
		copy(out.Val[out.RowPtr[u]:], m.Val[a:b])
	}
	return out
}

// cmpCol orders a stored column index against an int bound.
func cmpCol(c int32, bound int) int { return cmp.Compare(int(c), bound) }

// Range returns the half-open range [lo, hi) that part i of `of` owns out
// of total rows: a static partition, contiguous and in order, so every
// party that knows (total, i, of) agrees on ownership without coordination.
// The distributed trainer's ranks, a serving fleet's replicas and the
// simulator's devices and nodes all split this way.
func Range(total, i, of int) (lo, hi int) {
	return i * total / of, (i + 1) * total / of
}

// At returns the value at (row, col), or 0 if the coordinate is not stored.
// Rows are kept column-sorted, so the lookup is a binary search.
func (m *CSR) At(row, col int) float32 {
	cols, vals := m.Row(row)
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(cols[mid]) < col:
			lo = mid + 1
		case int(cols[mid]) > col:
			hi = mid
		default:
			return vals[mid]
		}
	}
	return 0
}

// Validate checks structural consistency: monotone row pointers, in-range and
// strictly increasing column indices per row, and matching array lengths.
func (m *CSR) Validate() error {
	if m.NumRows < 0 || m.NumCols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.NumRows, m.NumCols)
	}
	if len(m.RowPtr) != m.NumRows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.NumRows+1)
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: ColIdx length %d != Val length %d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.NumRows] != int64(len(m.Val)) {
		return fmt.Errorf("sparse: RowPtr[last] = %d, want nnz %d", m.RowPtr[m.NumRows], len(m.Val))
	}
	for r := 0; r < m.NumRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		if lo > hi {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", r)
		}
		for p := lo; p < hi; p++ {
			c := m.ColIdx[p]
			if c < 0 || int(c) >= m.NumCols {
				return fmt.Errorf("sparse: row %d col %d out of range [0,%d)", r, c, m.NumCols)
			}
			if p > lo && m.ColIdx[p-1] >= c {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at pos %d", r, p)
			}
		}
	}
	return nil
}

// ToCSC transposes the CSR structure into the column-compressed view of the
// same logical matrix. It is a two-pass counting transpose: O(nnz + n).
func (m *CSR) ToCSC() *CSC {
	t := &CSC{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		ColPtr:  make([]int64, m.NumCols+1),
		RowIdx:  make([]int32, len(m.Val)),
		Val:     make([]float32, len(m.Val)),
	}
	for _, c := range m.ColIdx {
		t.ColPtr[c+1]++
	}
	for c := 0; c < m.NumCols; c++ {
		t.ColPtr[c+1] += t.ColPtr[c]
	}
	next := make([]int64, m.NumCols)
	copy(next, t.ColPtr[:m.NumCols])
	for r := 0; r < m.NumRows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		for p := lo; p < hi; p++ {
			c := m.ColIdx[p]
			q := next[c]
			t.RowIdx[q] = int32(r)
			t.Val[q] = m.Val[p]
			next[c]++
		}
	}
	return t
}

// ToCOO expands the matrix back to coordinate form (row-major order).
func (m *CSR) ToCOO() *COO {
	out := NewCOO(m.NumRows, m.NumCols)
	out.RowIdx = make([]int32, 0, len(m.Val))
	for r := 0; r < m.NumRows; r++ {
		for range m.RowNNZ(r) {
			out.RowIdx = append(out.RowIdx, int32(r))
		}
	}
	out.ColIdx, out.Val = slices.Clone(m.ColIdx), slices.Clone(m.Val)
	return out
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  make([]int64, len(m.RowPtr)),
		ColIdx:  make([]int32, len(m.ColIdx)),
		Val:     make([]float32, len(m.Val)),
	}
	copy(out.RowPtr, m.RowPtr)
	copy(out.ColIdx, m.ColIdx)
	copy(out.Val, m.Val)
	return out
}

// CSC is a compressed-sparse-column matrix: the column-major twin of CSR,
// used when ALS updates the item factors Y (each column i lists the users
// who rated item i).
type CSC struct {
	NumRows, NumCols int
	ColPtr           []int64
	RowIdx           []int32
	Val              []float32
}

// NNZ returns the number of stored nonzeros.
func (m *CSC) NNZ() int { return len(m.Val) }

// ColNNZ returns the number of nonzeros in column i.
func (m *CSC) ColNNZ(i int) int { return int(m.ColPtr[i+1] - m.ColPtr[i]) }

// Col returns the row indices and values of column i as sub-slices backed by
// the matrix storage. Callers must not modify them.
func (m *CSC) Col(i int) (rows []int32, vals []float32) {
	lo, hi := m.ColPtr[i], m.ColPtr[i+1]
	return m.RowIdx[lo:hi], m.Val[lo:hi]
}

// At returns the value at (row, col), or 0 if the coordinate is not stored.
func (m *CSC) At(row, col int) float32 {
	rows, vals := m.Col(col)
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case int(rows[mid]) < row:
			lo = mid + 1
		case int(rows[mid]) > row:
			hi = mid
		default:
			return vals[mid]
		}
	}
	return 0
}

// Validate checks structural consistency of the CSC arrays.
func (m *CSC) Validate() error {
	if m.NumRows < 0 || m.NumCols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.NumRows, m.NumCols)
	}
	if len(m.ColPtr) != m.NumCols+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(m.ColPtr), m.NumCols+1)
	}
	if len(m.RowIdx) != len(m.Val) {
		return fmt.Errorf("sparse: RowIdx length %d != Val length %d", len(m.RowIdx), len(m.Val))
	}
	if m.ColPtr[0] != 0 {
		return fmt.Errorf("sparse: ColPtr[0] = %d, want 0", m.ColPtr[0])
	}
	if m.ColPtr[m.NumCols] != int64(len(m.Val)) {
		return fmt.Errorf("sparse: ColPtr[last] = %d, want nnz %d", m.ColPtr[m.NumCols], len(m.Val))
	}
	for c := 0; c < m.NumCols; c++ {
		lo, hi := m.ColPtr[c], m.ColPtr[c+1]
		if lo > hi {
			return fmt.Errorf("sparse: ColPtr not monotone at col %d", c)
		}
		for p := lo; p < hi; p++ {
			r := m.RowIdx[p]
			if r < 0 || int(r) >= m.NumRows {
				return fmt.Errorf("sparse: col %d row %d out of range [0,%d)", c, r, m.NumRows)
			}
			if p > lo && m.RowIdx[p-1] >= r {
				return fmt.Errorf("sparse: col %d rows not strictly increasing at pos %d", c, p)
			}
		}
	}
	return nil
}

// ToCSR transposes the CSC structure back to the row-compressed view.
func (m *CSC) ToCSR() *CSR {
	t := &CSR{
		NumRows: m.NumRows,
		NumCols: m.NumCols,
		RowPtr:  make([]int64, m.NumRows+1),
		ColIdx:  make([]int32, len(m.Val)),
		Val:     make([]float32, len(m.Val)),
	}
	for _, r := range m.RowIdx {
		t.RowPtr[r+1]++
	}
	for r := 0; r < m.NumRows; r++ {
		t.RowPtr[r+1] += t.RowPtr[r]
	}
	next := make([]int64, m.NumRows)
	copy(next, t.RowPtr[:m.NumRows])
	for c := 0; c < m.NumCols; c++ {
		lo, hi := m.ColPtr[c], m.ColPtr[c+1]
		for p := lo; p < hi; p++ {
			r := m.RowIdx[p]
			q := next[r]
			t.ColIdx[q] = int32(c)
			t.Val[q] = m.Val[p]
			next[r]++
		}
	}
	return t
}

// Matrix bundles the CSR and CSC views of one rating matrix R, the pair the
// ALS solver needs (CSR to update X, CSC to update Y).
type Matrix struct {
	R *CSR // row view: users × items
	C *CSC // column view of the same matrix
}

// NewMatrix builds both views from coordinate data: NewCSR, then the
// transpose. It takes the COO over as NewCSR does.
func NewMatrix(coo *COO) (*Matrix, error) {
	r, err := NewCSR(coo)
	if err != nil {
		return nil, err
	}
	return &Matrix{R: r, C: r.ToCSC()}, nil
}

// NewCSR builds the row view from coordinate data, in time linear in the
// entries. A coordinate that occurs more than once keeps the value of its
// last occurrence: a re-rated item keeps the last rating in the file.
//
// NewCSR takes ownership of the COO's arrays and leaves it empty. Entries
// that ascend strictly by (row, col), as a rating file written row by row
// holds them, are the CSR's arrays already: it counts the row pointers and
// adopts ColIdx and Val without a copy. Entries in any other order are
// sorted by two counting passes into new arrays.
func NewCSR(coo *COO) (*CSR, error) {
	if err := coo.Validate(); err != nil {
		return nil, err
	}
	if coo.Rows > math.MaxInt32+1 || coo.Cols > math.MaxInt32+1 {
		return nil, fmt.Errorf("sparse: dimensions %dx%d do not fit the 32-bit index", coo.Rows, coo.Cols)
	}
	r := &CSR{NumRows: coo.Rows, NumCols: coo.Cols, RowPtr: make([]int64, coo.Rows+1)}
	// Count the rows, and see whether the entries already ascend strictly
	// by (row, col): sorted, and no coordinate twice.
	rowMajor := true
	for i, u := range coo.RowIdx {
		r.RowPtr[u+1]++
		if i > 0 && rowMajor {
			p := coo.RowIdx[i-1]
			rowMajor = p < u || (p == u && coo.ColIdx[i-1] < coo.ColIdx[i])
		}
	}
	for u := 0; u < coo.Rows; u++ {
		r.RowPtr[u+1] += r.RowPtr[u]
	}
	if rowMajor {
		r.ColIdx, r.Val = coo.ColIdx, coo.Val
	} else {
		r.fillSorted(coo)
	}
	*coo = COO{}
	return r, nil
}

// fillSorted fills ColIdx and Val from entries in any order, given the
// RowPtr of their row counts: a stable counting pass by column, then one
// by row, leaves every row ascending by column with equal coordinates
// adjacent and in entry order, so keeping the last of each run is a
// compaction. No comparison sort.
func (m *CSR) fillSorted(coo *COO) {
	// By column: each column's rows and values in entry order. end[c]
	// walks from the start of column c to its end.
	end := make([]int64, m.NumCols+1)
	for _, c := range coo.ColIdx {
		end[c+1]++
	}
	for c := 0; c < m.NumCols; c++ {
		end[c+1] += end[c]
	}
	rows := make([]int32, len(coo.RowIdx))
	vals := make([]float32, len(coo.Val))
	for i, c := range coo.ColIdx {
		rows[end[c]], vals[end[c]] = coo.RowIdx[i], coo.Val[i]
		end[c]++
	}
	// By row, the columns in order.
	m.ColIdx = make([]int32, len(rows))
	m.Val = make([]float32, len(rows))
	next := slices.Clone(m.RowPtr)
	q := int64(0)
	for c := 0; c < m.NumCols; c++ {
		for ; q < end[c]; q++ {
			p := next[rows[q]]
			m.ColIdx[p], m.Val[p] = int32(c), vals[q]
			next[rows[q]]++
		}
	}
	// Keep the last entry of every run of one coordinate.
	w := int64(0)
	for u := 0; u < m.NumRows; u++ {
		lo, hi := m.RowPtr[u], m.RowPtr[u+1]
		m.RowPtr[u] = w
		for p := lo; p < hi; p++ {
			if p+1 < hi && m.ColIdx[p+1] == m.ColIdx[p] {
				continue
			}
			m.ColIdx[w], m.Val[w] = m.ColIdx[p], m.Val[p]
			w++
		}
	}
	m.RowPtr[m.NumRows] = w
	m.ColIdx, m.Val = m.ColIdx[:w], m.Val[:w]
}

// Rows returns the number of users m.
func (mx *Matrix) Rows() int { return mx.R.NumRows }

// Cols returns the number of items n.
func (mx *Matrix) Cols() int { return mx.R.NumCols }

// NNZ returns the number of observed ratings.
func (mx *Matrix) NNZ() int { return mx.R.NNZ() }

// RT returns Rᵀ as a CSR matrix (items × users) without copying: the CSC
// arrays of R are the CSR arrays of its transpose. The Y half of every ALS
// variant runs the X half's row update on this view.
func (mx *Matrix) RT() *CSR {
	return &CSR{NumRows: mx.Cols(), NumCols: mx.Rows(), RowPtr: mx.C.ColPtr, ColIdx: mx.C.RowIdx, Val: mx.C.Val}
}
