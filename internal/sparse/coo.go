package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Entry is one rating triple <userID, itemID, rating> in coordinate form.
type Entry struct {
	Row, Col int
	Val      float32
}

// COO is a coordinate-format sparse matrix: an unordered bag of entries.
// It is the natural ingestion format for rating files and synthetic
// generators; convert to CSR/CSC for computation.
type COO struct {
	Rows, Cols int
	Entries    []Entry
}

// NewCOO returns an empty COO matrix with the given logical dimensions.
func NewCOO(rows, cols int) *COO {
	return &COO{Rows: rows, Cols: cols}
}

// Append adds one entry. It grows the logical dimensions if the coordinate
// lies outside the current bounds, which lets callers ingest rating files
// without knowing m and n up front.
func (c *COO) Append(row, col int, val float32) {
	if row >= c.Rows {
		c.Rows = row + 1
	}
	if col >= c.Cols {
		c.Cols = col + 1
	}
	c.Entries = append(c.Entries, Entry{Row: row, Col: col, Val: val})
}

// NNZ returns the number of stored entries, including any duplicates.
func (c *COO) NNZ() int { return len(c.Entries) }

// Validate checks that every entry lies within the matrix bounds.
func (c *COO) Validate() error {
	if c.Rows < 0 || c.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", c.Rows, c.Cols)
	}
	for i, e := range c.Entries {
		if e.Row < 0 || e.Row >= c.Rows {
			return fmt.Errorf("sparse: entry %d row %d out of range [0,%d)", i, e.Row, c.Rows)
		}
		if e.Col < 0 || e.Col >= c.Cols {
			return fmt.Errorf("sparse: entry %d col %d out of range [0,%d)", i, e.Col, c.Cols)
		}
	}
	return nil
}

// SortRowMajor orders entries by (row, col). The sort is stable: entries
// with one coordinate keep the order they were appended in.
func (c *COO) SortRowMajor() {
	slices.SortStableFunc(c.Entries, func(a, b Entry) int {
		if a.Row != b.Row {
			return cmp.Compare(a.Row, b.Row)
		}
		return cmp.Compare(a.Col, b.Col)
	})
}

// SortColMajor orders entries by (col, row), stably.
func (c *COO) SortColMajor() {
	slices.SortStableFunc(c.Entries, func(a, b Entry) int {
		if a.Col != b.Col {
			return cmp.Compare(a.Col, b.Col)
		}
		return cmp.Compare(a.Row, b.Row)
	})
}

// Dedup merges duplicate (row, col) coordinates. The keep policy decides the
// surviving value; first and last mean the order the entries were appended
// in. Dedup sorts the entries row-major as a side effect.
func (c *COO) Dedup(keep DedupPolicy) {
	if len(c.Entries) == 0 {
		return
	}
	c.SortRowMajor()
	out := c.Entries[:1]
	for _, e := range c.Entries[1:] {
		last := &out[len(out)-1]
		if e.Row == last.Row && e.Col == last.Col {
			switch keep {
			case DedupKeepLast:
				last.Val = e.Val
			case DedupKeepFirst:
				// keep existing
			case DedupSum:
				last.Val += e.Val
			}
			continue
		}
		out = append(out, e)
	}
	c.Entries = out
}

// DedupPolicy selects how duplicate coordinates are merged by Dedup.
type DedupPolicy int

const (
	// DedupKeepLast keeps the value of the last duplicate seen (typical for
	// re-rated items in recommendation logs).
	DedupKeepLast DedupPolicy = iota
	// DedupKeepFirst keeps the first value seen.
	DedupKeepFirst
	// DedupSum accumulates duplicate values.
	DedupSum
)

// ErrDuplicate is returned by conversions that require unique coordinates.
var ErrDuplicate = errors.New("sparse: duplicate coordinate")

// ToCSR converts the COO matrix to CSR. Entries are counted and bucketed in
// two passes, so the receiver's entry order does not matter. Duplicate
// coordinates are rejected with ErrDuplicate; call Dedup first to merge them.
func (c *COO) ToCSR() (*CSR, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m := &CSR{
		NumRows: c.Rows,
		NumCols: c.Cols,
		RowPtr:  make([]int64, c.Rows+1),
		ColIdx:  make([]int32, len(c.Entries)),
		Val:     make([]float32, len(c.Entries)),
	}
	for _, e := range c.Entries {
		m.RowPtr[e.Row+1]++
	}
	for r := 0; r < c.Rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	next := make([]int64, c.Rows)
	copy(next, m.RowPtr[:c.Rows])
	for _, e := range c.Entries {
		p := next[e.Row]
		m.ColIdx[p] = int32(e.Col)
		m.Val[p] = e.Val
		next[e.Row]++
	}
	// Sort each row by column index and detect duplicates.
	for r := 0; r < c.Rows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		row := rowView{cols: m.ColIdx[lo:hi], vals: m.Val[lo:hi]}
		sort.Sort(row)
		for i := 1; i < len(row.cols); i++ {
			if row.cols[i] == row.cols[i-1] {
				return nil, fmt.Errorf("%w: (%d,%d)", ErrDuplicate, r, row.cols[i])
			}
		}
	}
	return m, nil
}

// ToCSC converts the COO matrix to CSC via the transpose of the CSR path.
func (c *COO) ToCSC() (*CSC, error) {
	csr, err := c.ToCSR()
	if err != nil {
		return nil, err
	}
	return csr.ToCSC(), nil
}

// rowView sorts one CSR row's (col, val) pairs together.
type rowView struct {
	cols []int32
	vals []float32
}

func (r rowView) Len() int           { return len(r.cols) }
func (r rowView) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r rowView) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}
