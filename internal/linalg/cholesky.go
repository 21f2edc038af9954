package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD reports that Cholesky factorization hit a non-positive pivot:
// the matrix is not (numerically) symmetric positive definite. For ALS this
// cannot happen when λ > 0, since smat = YᵀY + λI ⪰ λI ≻ 0, but the solver
// still guards against it (e.g. λ = 0 with an empty row).
var ErrNotSPD = errors.New("linalg: matrix not positive definite")

// Cholesky factorizes the symmetric positive-definite k×k matrix A in place
// into A = L·Lᵀ, storing L in the lower triangle (the upper triangle is left
// untouched). This is the paper's S3 step ("LLᵀ ← smat ... with Cholesky").
// Accumulation is in float64: for k up to a few hundred, float32 dot products
// lose enough precision to destabilize the subsequent triangular solves.
func Cholesky(a *Dense) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Cholesky needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	k := a.Rows
	for j := 0; j < k; j++ {
		// Diagonal: L[j][j] = sqrt(A[j][j] - sum_{p<j} L[j][p]^2).
		d := float64(a.At(j, j))
		row := a.Row(j)
		for p := 0; p < j; p++ {
			d -= float64(row[p]) * float64(row[p])
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		a.Set(j, j, float32(ljj))
		// Column below the diagonal.
		for i := j + 1; i < k; i++ {
			s := float64(a.At(i, j))
			ri := a.Row(i)
			for p := 0; p < j; p++ {
				s -= float64(ri[p]) * float64(row[p])
			}
			a.Set(i, j, float32(s/ljj))
		}
	}
	return nil
}

// SolveCholesky solves A·x = b given the in-place Cholesky factor produced
// by Cholesky (L in the lower triangle of a). b is overwritten with x.
// It performs the forward solve L·y = b then the backward solve Lᵀ·x = y.
func SolveCholesky(a *Dense, b []float32) error {
	k := a.Rows
	if a.Cols != k || len(b) != k {
		return fmt.Errorf("linalg: SolveCholesky shape mismatch: A %dx%d, b %d", a.Rows, a.Cols, len(b))
	}
	// Forward: L y = b.
	for i := 0; i < k; i++ {
		s := float64(b[i])
		row := a.Row(i)
		for p := 0; p < i; p++ {
			s -= float64(row[p]) * float64(b[p])
		}
		b[i] = float32(s / float64(row[i]))
	}
	// Backward: Lᵀ x = y. Lᵀ[i][j] = L[j][i].
	for i := k - 1; i >= 0; i-- {
		s := float64(b[i])
		for p := i + 1; p < k; p++ {
			s -= float64(a.At(p, i)) * float64(b[p])
		}
		b[i] = float32(s / float64(a.At(i, i)))
	}
	return nil
}

// CholeskySolve is the fused convenience path used by the ALS inner loop:
// it factorizes a copy-free in-place view of smat and solves for x in one
// call. smat is destroyed (its lower triangle becomes L); b becomes x.
func CholeskySolve(smat *Dense, b []float32) error {
	if err := Cholesky(smat); err != nil {
		return err
	}
	return SolveCholesky(smat, b)
}

// LDLSolve solves A·x = b via an LDLᵀ factorization without square roots.
// It tolerates semi-definite matrices better than plain Cholesky and is the
// fallback the solver uses when λ = 0 produces a borderline pivot. A is
// destroyed; b is overwritten with x.
func LDLSolve(a *Dense, b []float32) error {
	k := a.Rows
	if a.Cols != k || len(b) != k {
		return fmt.Errorf("linalg: LDLSolve shape mismatch: A %dx%d, b %d", a.Rows, a.Cols, len(b))
	}
	d := make([]float64, k)
	// Factor: A = L D Lᵀ with unit lower-triangular L stored below diag.
	for j := 0; j < k; j++ {
		dj := float64(a.At(j, j))
		row := a.Row(j)
		for p := 0; p < j; p++ {
			dj -= float64(row[p]) * float64(row[p]) * d[p]
		}
		if math.Abs(dj) < 1e-30 || math.IsNaN(dj) {
			return fmt.Errorf("%w: LDL pivot %d = %g", ErrNotSPD, j, dj)
		}
		d[j] = dj
		for i := j + 1; i < k; i++ {
			s := float64(a.At(i, j))
			ri := a.Row(i)
			for p := 0; p < j; p++ {
				s -= float64(ri[p]) * float64(row[p]) * d[p]
			}
			a.Set(i, j, float32(s/dj))
		}
	}
	// Forward: L z = b.
	for i := 0; i < k; i++ {
		s := float64(b[i])
		row := a.Row(i)
		for p := 0; p < i; p++ {
			s -= float64(row[p]) * float64(b[p])
		}
		b[i] = float32(s)
	}
	// Diagonal: D w = z.
	for i := 0; i < k; i++ {
		b[i] = float32(float64(b[i]) / d[i])
	}
	// Backward: Lᵀ x = w.
	for i := k - 1; i >= 0; i-- {
		s := float64(b[i])
		for p := i + 1; p < k; p++ {
			s -= float64(a.At(p, i)) * float64(b[p])
		}
		b[i] = float32(s)
	}
	return nil
}
