package linalg

import (
	"fmt"
	"strings"
)

// Dense is a row-major dense matrix of float32. ALS uses it both for the
// factor matrices X (m×k) and Y (n×k) and for the per-update k×k normal
// matrix smat.
type Dense struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewDenseFrom wraps existing row-major data without copying.
func NewDenseFrom(rows, cols int, data []float32) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float32 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float32) { d.Data[i*d.Cols+j] = v }

// Row returns row i as a sub-slice backed by the matrix storage.
func (d *Dense) Row(i int) []float32 { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.Rows, d.Cols)
	copy(out.Data, d.Data)
	return out
}

// String renders small matrices for debugging; large ones are abbreviated.
func (d *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %dx%d", d.Rows, d.Cols)
	if d.Rows > 8 || d.Cols > 8 {
		return b.String()
	}
	for i := 0; i < d.Rows; i++ {
		b.WriteString("\n  ")
		for j := 0; j < d.Cols; j++ {
			fmt.Fprintf(&b, "%9.4f", d.At(i, j))
		}
	}
	return b.String()
}

// AddDiag adds lambda to every diagonal element of a square matrix — the
// regularization term λI of smat = YᵀY + λI.
func (d *Dense) AddDiag(lambda float32) {
	if d.Rows != d.Cols {
		panic("linalg: AddDiag requires a square matrix")
	}
	for i := 0; i < d.Rows; i++ {
		d.Data[i*d.Cols+i] += lambda
	}
}
