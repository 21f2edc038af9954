package linalg

import (
	"fmt"
	"math"
)

// This file implements packed symmetric storage for the per-row normal
// matrix smat = YᵀY|Ω + λI. The matrix is symmetric, so only the upper
// triangle is stored, row-major:
//
//	P[off(i) + (j-i)] = A[i][j]   for j >= i,  off(i) = i*(2k-i+1)/2
//
// k*(k+1)/2 floats instead of k*k. This removes the mirror copy the dense
// Gram kernels make after accumulating the upper triangle (Fig. 3's smat is
// only ever used symmetrically) and halves the S3 working set: the packed
// Cholesky factors in place over the same triangle. The arithmetic — every
// element's terms in the dense loops' order, accumulated in float64 —
// matches the dense Cholesky/LDLᵀ in cholesky.go exactly, so packed and
// dense solves agree bit-for-bit on the same input (packed_test.go asserts
// it).

// PackedLen returns the storage size of a packed symmetric k×k matrix:
// k*(k+1)/2.
func PackedLen(k int) int { return k * (k + 1) / 2 }

// PackedOff returns the offset of the first (diagonal) element of row i in
// the packed upper-triangular layout.
func PackedOff(k, i int) int { return i * (2*k - i + 1) / 2 }

// AddDiagPacked adds lambda to every diagonal element of a packed k×k
// symmetric matrix — the λI regularization on packed storage.
func AddDiagPacked(p []float32, k int, lambda float32) {
	d := 0
	for i := 0; i < k; i++ {
		p[d] += lambda
		d += k - i
	}
}

// ZeroDiagPacked zeroes every diagonal element of a packed k×k symmetric
// matrix, making it exactly singular — the guard chaos harness uses it to
// force ErrNotSPD out of the packed Cholesky.
func ZeroDiagPacked(p []float32, k int) {
	d := 0
	for i := 0; i < k; i++ {
		p[d] = 0
		d += k - i
	}
}

// CholeskyPacked factorizes a packed symmetric positive-definite matrix in
// place into A = UᵀU with U upper-triangular in the same packed layout
// (U = Lᵀ of the dense form, so the pivots and off-diagonal values are
// identical to Cholesky's). Accumulation is in float64, same as the dense
// path.
//
// Row j of the factor is row j of A minus U[q][j]·U[q][j:] for every
// finished row q < j, taken in ascending q. The textbook loop nest (dense
// Cholesky's, choleskyPackedColumns in the tests) finishes one element at a
// time and so walks U[q][j] and U[q][i] down columns of the triangle, a
// different stride at every step; here the whole row is held in a float64
// strip and each q subtracts the contiguous tail of its row from it
// (cholSweep). Every element still sees q = 0..j−1 in that order, and a
// product of two float32 is exact in float64, so each is rounded exactly
// where the column walk rounds it: the factor is the same bit for bit.
func CholeskyPacked(p []float32, k int) error {
	if k <= cholStackK {
		var acc [cholStackK]float64
		return choleskyPacked(p, k, acc[:])
	}
	return choleskyPacked(p, k, make([]float64, k))
}

// cholStackK is the largest k CholeskyPacked keeps its row strip on its own
// stack for (cgStackK's reason: the row update allocates nothing).
const cholStackK = 128

func choleskyPacked(p []float32, k int, acc []float64) error {
	p = p[:PackedLen(k)]
	oj := 0
	for j := 0; j < k; j++ {
		row := p[oj : oj+k-j] // U[j][j:], contiguous
		strip := acc[:len(row)]
		for i, v := range row {
			strip[i] = float64(v)
		}
		cholSweep(p, k, j, strip)
		// Pivot: U[j][j] = sqrt(A[j][j] - Σ_{q<j} U[q][j]²). A rejected
		// pivot leaves row j as it was.
		d := strip[0]
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, d)
		}
		ujj := math.Sqrt(d)
		row[0] = float32(ujj)
		// Rest of row j: U[j][i] = (A[j][i] - Σ_{q<j} U[q][j]·U[q][i]) / U[j][j].
		for i := 1; i < len(row); i++ {
			row[i] = float32(strip[i] / ujj)
		}
		oj += k - j
	}
	return nil
}

// cholSweepPortable subtracts rows 0..j−1's share from pivot row j's strip:
// acc[i] −= U[q][j]·U[q][j+i] for q ascending, len(acc) = k − j. U[q][j:] is
// the tail of packed row q and starts k−q−1 floats after U[q−1][j:].
func cholSweepPortable(p []float32, k, j int, acc []float64) {
	off := j
	for q := 0; q < j; q++ {
		tail := p[off:][:len(acc)]
		u := float64(tail[0])
		for i, v := range tail {
			acc[i] -= u * float64(v)
		}
		off += k - q - 1
	}
}

// SolveCholeskyPacked solves A·x = b given the packed factor produced by
// CholeskyPacked (A = UᵀU). b is overwritten with x: forward solve
// Uᵀy = b, then backward solve Ux = y.
func SolveCholeskyPacked(p []float32, k int, b []float32) {
	// Forward: Uᵀ is lower-triangular with (Uᵀ)[i][q] = U[q][i].
	for i := 0; i < k; i++ {
		s := float64(b[i])
		off := i
		for q := 0; q < i; q++ {
			s -= float64(p[off]) * float64(b[q])
			off += k - q - 1
		}
		b[i] = float32(s / float64(p[off]))
	}
	// Backward: U x = y; row i of U is contiguous.
	for i := k - 1; i >= 0; i-- {
		oi := PackedOff(k, i)
		s := float64(b[i])
		for q := i + 1; q < k; q++ {
			s -= float64(p[oi+q-i]) * float64(b[q])
		}
		b[i] = float32(s / float64(p[oi]))
	}
}

// CholeskySolvePacked is the fused S3 path on packed storage: factor in
// place and solve. p is destroyed (becomes U); b becomes x.
func CholeskySolvePacked(p []float32, k int, b []float32) error {
	if err := CholeskyPacked(p, k); err != nil {
		return err
	}
	SolveCholeskyPacked(p, k, b)
	return nil
}

// LDLSolvePacked solves A·x = b on packed storage via a square-root-free
// LDLᵀ factorization, the fallback for borderline systems (λ = 0). d is a
// caller-provided float64 scratch of length ≥ k so the hot path stays
// allocation-free; A is destroyed (unit U off-diagonal, D implicit in d);
// b is overwritten with x.
func LDLSolvePacked(p []float32, k int, b []float32, d []float64) error {
	d = d[:k]
	// Factor: A = Uᵀ D U with unit upper-triangular U (dense LDLSolve's L is
	// Uᵀ, so pivots match the dense path exactly).
	for j := 0; j < k; j++ {
		oj := PackedOff(k, j)
		dj := float64(p[oj])
		off := j
		for q := 0; q < j; q++ {
			v := float64(p[off])
			dj -= v * v * d[q]
			off += k - q - 1
		}
		if math.Abs(dj) < 1e-30 || math.IsNaN(dj) {
			return fmt.Errorf("%w: LDL pivot %d = %g", ErrNotSPD, j, dj)
		}
		d[j] = dj
		for i := j + 1; i < k; i++ {
			s := float64(p[oj+i-j])
			offJ, offI := j, i
			for q := 0; q < j; q++ {
				s -= float64(p[offJ]) * float64(p[offI]) * d[q]
				step := k - q - 1
				offJ += step
				offI += step
			}
			p[oj+i-j] = float32(s / dj)
		}
	}
	// Forward: Uᵀ z = b (unit diagonal).
	for i := 0; i < k; i++ {
		s := float64(b[i])
		off := i
		for q := 0; q < i; q++ {
			s -= float64(p[off]) * float64(b[q])
			off += k - q - 1
		}
		b[i] = float32(s)
	}
	// Diagonal: D w = z.
	for i := 0; i < k; i++ {
		b[i] = float32(float64(b[i]) / d[i])
	}
	// Backward: U x = w (unit diagonal).
	for i := k - 1; i >= 0; i-- {
		oi := PackedOff(k, i)
		s := float64(b[i])
		for q := i + 1; q < k; q++ {
			s -= float64(p[oi+q-i]) * float64(b[q])
		}
		b[i] = float32(s)
	}
	return nil
}
