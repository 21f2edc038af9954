package sparse

import "fmt"

// Entry is one rating triple <userID, itemID, rating>: what the parser
// reads off one line before it lands in a COO's columns.
type Entry struct {
	Row, Col int
	Val      float32
}

// COO is a coordinate-format sparse matrix: an unordered bag of entries,
// stored as three columns, 12 bytes a rating. Entry i is (RowIdx[i],
// ColIdx[i], Val[i]). It is the ingestion format of rating files and the
// synthetic generator; NewCSR and NewMatrix take its arrays over.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []float32
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
	c.RowIdx = append(c.RowIdx, int32(row))
	c.ColIdx = append(c.ColIdx, int32(col))
	c.Val = append(c.Val, val)
}

// Grow makes room for n more entries, so that as many Appends allocate
// nothing.
func (c *COO) Grow(n int) {
	c.RowIdx = grow(c.RowIdx, n)
	c.ColIdx = grow(c.ColIdx, n)
	c.Val = grow(c.Val, n)
}

// grow is slices.Grow in one allocation, to twice the capacity when that
// is more: slices.Grow allocates twice under the race detector, and the
// allocation tests run there too.
func grow[E int32 | float32](s []E, n int) []E {
	if n <= cap(s)-len(s) {
		return s
	}
	g := make([]E, len(s), max(len(s)+n, 2*cap(s)))
	copy(g, s)
	return g
}

// NNZ returns the number of stored entries, including any duplicates.
func (c *COO) NNZ() int { return len(c.Val) }

// Validate checks that the columns agree in length and that every entry
// lies within the matrix bounds.
func (c *COO) Validate() error {
	if c.Rows < 0 || c.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", c.Rows, c.Cols)
	}
	if len(c.RowIdx) != len(c.Val) || len(c.ColIdx) != len(c.Val) {
		return fmt.Errorf("sparse: COO columns of %d, %d and %d entries", len(c.RowIdx), len(c.ColIdx), len(c.Val))
	}
	for i, r := range c.RowIdx {
		if r < 0 || int(r) >= c.Rows {
			return fmt.Errorf("sparse: entry %d row %d out of range [0,%d)", i, r, c.Rows)
		}
		if col := c.ColIdx[i]; col < 0 || int(col) >= c.Cols {
			return fmt.Errorf("sparse: entry %d col %d out of range [0,%d)", i, col, c.Cols)
		}
	}
	return nil
}
