package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackedLayout(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10} {
		if got := PackedLen(k); got != k*(k+1)/2 {
			t.Fatalf("PackedLen(%d) = %d", k, got)
		}
		// Offsets must tile the packed array exactly: row i holds k-i entries.
		idx := 0
		for i := 0; i < k; i++ {
			if off := PackedOff(k, i); off != idx {
				t.Fatalf("k=%d: PackedOff(%d) = %d, want %d", k, i, off, idx)
			}
			idx += k - i
		}
		if idx != PackedLen(k) {
			t.Fatalf("k=%d: offsets cover %d entries, want %d", k, idx, PackedLen(k))
		}
	}
}

func TestPackedDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 3, 10} {
		a := randomSPD(rng, k, k+4, 0.3)
		p := denseToPacked(a, make([]float32, PackedLen(k)))
		back := packedToDense(p, k)
		if d := MaxAbsDiff(a, back); d != 0 {
			t.Fatalf("k=%d: round trip differs by %g", k, d)
		}
	}
}

func TestAddDiagPacked(t *testing.T) {
	k := 4
	a := randomSPD(rand.New(rand.NewSource(2)), k, 6, 0)
	p := denseToPacked(a, make([]float32, PackedLen(k)))
	AddDiagPacked(p, k, 0.5)
	a.AddDiag(0.5)
	if d := MaxAbsDiff(a, packedToDense(p, k)); d != 0 {
		t.Fatalf("AddDiagPacked differs from dense AddDiag by %g", d)
	}
}

// TestPackedCholeskyMatchesDense is the packed-vs-dense S3 property test:
// on random SPD YᵀY+λI systems the packed factorization and solve must be
// bit-identical to the dense path (same loop order, same float64
// accumulation).
func TestPackedCholeskyMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(16) + 1
		a := randomSPD(rng, k, k+5, 0.1)
		b := make([]float32, k)
		for i := range b {
			b[i] = rng.Float32()*4 - 2
		}
		p := denseToPacked(a, make([]float32, PackedLen(k)))
		bp := make([]float32, k)
		copy(bp, b)
		errD := CholeskySolve(a, b)
		errP := CholeskySolvePacked(p, k, bp)
		if (errD == nil) != (errP == nil) {
			return false
		}
		if errD != nil {
			return true
		}
		for i := range b {
			if b[i] != bp[i] {
				return false
			}
		}
		// The factor itself must match too: packed row i == dense L column i.
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				if p[PackedOff(k, i)+j-i] != a.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedLDLMatchesDense covers the λ=0 fallback path: the square-root-
// free packed LDLᵀ must agree bit-for-bit with the dense LDLSolve,
// including on the rank-deficient systems an empty-ish row with λ=0
// produces (both must reject with ErrNotSPD).
func TestPackedLDLMatchesDense(t *testing.T) {
	f := func(seed int64, degenerate bool) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(12) + 1
		omega := k + 3
		if degenerate && k > 1 {
			omega = k - 1 // rank-deficient YᵀY with λ=0
		}
		a := randomSPD(rng, k, omega, 0)
		b := make([]float32, k)
		for i := range b {
			b[i] = rng.Float32()
		}
		p := denseToPacked(a, make([]float32, PackedLen(k)))
		bp := make([]float32, k)
		copy(bp, b)
		errD := LDLSolve(a, b)
		errP := LDLSolvePacked(p, k, bp, make([]float64, k))
		if (errD == nil) != (errP == nil) {
			return false
		}
		if errD != nil {
			return errors.Is(errP, ErrNotSPD)
		}
		for i := range b {
			if b[i] != bp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseFrom(2, 2, []float32{1, 2, 2, 1}) // eigenvalues 3, -1
	p := denseToPacked(a, make([]float32, PackedLen(2)))
	if err := CholeskyPacked(p, 2); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

// referenceRHS mirrors referenceGram for the S2 vector.
func referenceRHS(y []float32, k int, cols []int32, vals []float32) []float64 {
	out := make([]float64, k)
	for z, c := range cols {
		row := y[int(c)*k : int(c)*k+k]
		for i := range row {
			out[i] += float64(vals[z]) * float64(row[i])
		}
	}
	return out
}

// TestFusedMatchesSeparateKernels: the fused single-pass S1+S2 kernel must
// reproduce GramRegister + GatherGaxpy exactly (same accumulation order),
// and the pair-blocked unrolled form must agree within float tolerance.
func TestFusedMatchesSeparateKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 5, 10, 16, 33} {
		for _, omega := range []int{0, 1, 2, 7, 101} {
			y := randomFactor(rng, 60, k)
			cols, vals := randomGather(rng, 60, omega)
			smat := make([]float32, k*k)
			svec := make([]float32, k)
			GramRegister(y, k, cols, smat)
			GatherGaxpy(y, k, cols, vals, svec)

			packed := make([]float32, PackedLen(k))
			fsvec := make([]float32, k)
			for i := range packed {
				packed[i] = float32(math.NaN()) // must be overwritten
			}
			GramRHSFused(y, k, cols, vals, packed, fsvec)
			got := packedToDense(packed, k)
			if d := MaxAbsDiff(NewDenseFrom(k, k, smat), got); d != 0 {
				t.Fatalf("k=%d omega=%d: fused Gram differs by %g", k, omega, d)
			}
			for i := range svec {
				if svec[i] != fsvec[i] {
					t.Fatalf("k=%d omega=%d: fused rhs[%d] = %g, want %g", k, omega, i, fsvec[i], svec[i])
				}
			}

			refG := referenceGram(y, k, cols)
			refR := referenceRHS(y, k, cols, vals)
			GramRHSFusedUnrolled(y, k, cols, vals, packed, fsvec)
			un := packedToDense(packed, k)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if math.Abs(float64(un.At(i, j))-refG[i*k+j]) > 1e-2*(1+math.Abs(refG[i*k+j])) {
						t.Fatalf("k=%d omega=%d: unrolled Gram (%d,%d) = %g, want %g",
							k, omega, i, j, un.At(i, j), refG[i*k+j])
					}
				}
			}
			for i := range fsvec {
				if math.Abs(float64(fsvec[i])-refR[i]) > 1e-3*(1+math.Abs(refR[i])) {
					t.Fatalf("k=%d omega=%d: unrolled rhs[%d] = %g, want %g", k, omega, i, fsvec[i], refR[i])
				}
			}
		}
	}
}

// TestFusedQuick: property form — the whole fused packed row update
// (fused Gram+RHS, packed Cholesky) equals the dense register path.
func TestFusedQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(12) + 1
		n := rng.Intn(30) + 1
		omega := rng.Intn(40) + 1
		y := randomFactor(rng, n, k)
		cols, vals := randomGather(rng, n, omega)

		smat := NewDense(k, k)
		svec := make([]float32, k)
		GramRegister(y, k, cols, smat.Data)
		GatherGaxpy(y, k, cols, vals, svec)
		smat.AddDiag(0.1)
		if err := CholeskySolve(smat, svec); err != nil {
			return true // both paths reject identically (covered elsewhere)
		}

		packed := make([]float32, PackedLen(k))
		fsvec := make([]float32, k)
		GramRHSFused(y, k, cols, vals, packed, fsvec)
		AddDiagPacked(packed, k, 0.1)
		if err := CholeskySolvePacked(packed, k, fsvec); err != nil {
			return false
		}
		for i := range svec {
			if svec[i] != fsvec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// packedToDense expands a packed upper-triangular matrix into a full dense
// symmetric matrix (both triangles).
func packedToDense(p []float32, k int) *Dense {
	a := NewDense(k, k)
	idx := 0
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			a.Set(i, j, p[idx])
			a.Set(j, i, p[idx])
			idx++
		}
	}
	return a
}

// denseToPacked compresses the upper triangle of a square dense matrix into
// packed storage. p must have PackedLen(k) capacity; it is returned sliced.
func denseToPacked(a *Dense, p []float32) []float32 {
	k := a.Rows
	p = p[:PackedLen(k)]
	idx := 0
	for i := 0; i < k; i++ {
		row := a.Row(i)
		for j := i; j < k; j++ {
			p[idx] = row[j]
			idx++
		}
	}
	return p
}
