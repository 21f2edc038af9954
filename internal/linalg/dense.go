package linalg

import (
	"fmt"
	"math"
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

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shaped matrices; it is the metric the variant-equivalence tests
// use to show the 8 code variants are functionally identical.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
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
