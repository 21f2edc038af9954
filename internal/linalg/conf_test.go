package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// referenceImplicitRow reproduces the reference solver's per-row arithmetic
// (internal/solvers implicit.go) float-for-float: dense float32 smat seeded
// from the sequential float64 Gram, corrections accumulated row-major, λI,
// dense Cholesky. Returns the corrected dense matrix (pre-factorization)
// and the solved factors.
func referenceImplicitRow(fixed *Dense, k int, cols []int32, vals []float32, alpha, lambda float32) (*Dense, []float32) {
	gram := make([]float64, k*k)
	for row := 0; row < fixed.Rows; row++ {
		f := fixed.Row(row)
		for i := 0; i < k; i++ {
			fi := float64(f[i])
			for j := i; j < k; j++ {
				gram[i*k+j] += fi * float64(f[j])
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			gram[j*k+i] = gram[i*k+j]
		}
	}
	smat := NewDense(k, k)
	svec := make([]float32, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			smat.Data[i*k+j] = float32(gram[i*k+j])
		}
	}
	for z, c := range cols {
		conf := alpha * vals[z]
		f := fixed.Row(int(c))
		for i := 0; i < k; i++ {
			ci := conf * f[i]
			row := smat.Data[i*k:]
			for j := 0; j < k; j++ {
				row[j] += ci * f[j]
			}
			svec[i] += (1 + conf) * f[i]
		}
	}
	smat.AddDiag(lambda)
	pre := smat.Clone()
	if err := CholeskySolve(smat, svec); err != nil {
		panic(err)
	}
	return pre, svec
}

func implicitFixture(rng *rand.Rand, n, k, omega int) (*Dense, []int32, []float32) {
	fixed := NewDense(n, k)
	for i := range fixed.Data {
		fixed.Data[i] = rng.Float32()*0.2 - 0.1
	}
	perm := rng.Perm(n)
	cols := make([]int32, omega)
	vals := make([]float32, omega)
	for z := 0; z < omega; z++ {
		cols[z] = int32(perm[z])
		vals[z] = float32(rng.Intn(5) + 1)
	}
	return fixed, cols, vals
}

// The packed confidence kernel must mirror the LOWER triangle of the
// reference's dense matrix — the triangle the dense Cholesky actually reads
// — exactly, and the packed solve must then reproduce the reference factors
// bit-for-bit. This is the kernel-level half of the fast-path equivalence
// contract.
func TestConfGramRHSFusedBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, k, omega int }{
		{30, 8, 5}, {50, 10, 1}, {64, 16, 20}, {40, 13, 40},
	} {
		const alpha, lambda = 40, 0.1
		fixed, cols, vals := implicitFixture(rng, tc.n, tc.k, tc.omega)
		pre, want := referenceImplicitRow(fixed, tc.k, cols, vals, alpha, lambda)

		g := NewSharedGram(tc.k)
		g.Compute(fixed)
		packed := make([]float32, PackedLen(tc.k))
		svec := make([]float32, tc.k)
		cf := make([]float32, tc.k)
		ConfGramRHSFused(fixed.Data, tc.k, cols, vals, alpha, g.Packed, packed, svec, cf)
		AddDiagPacked(packed, tc.k, lambda)

		// Slot (a,b), a<=b of the packed matrix == dense (b,a).
		idx := 0
		for a := 0; a < tc.k; a++ {
			for b := a; b < tc.k; b++ {
				if packed[idx] != pre.At(b, a) {
					t.Fatalf("n=%d k=%d omega=%d: packed slot (%d,%d)=%v != dense lower (%d,%d)=%v",
						tc.n, tc.k, tc.omega, a, b, packed[idx], b, a, pre.At(b, a))
				}
				idx++
			}
		}
		if err := CholeskySolvePacked(packed, tc.k, svec); err != nil {
			t.Fatal(err)
		}
		for i := range svec {
			if svec[i] != want[i] {
				t.Fatalf("n=%d k=%d omega=%d: solution component %d: packed %v != reference %v",
					tc.n, tc.k, tc.omega, i, svec[i], want[i])
			}
		}
	}
}

// The unrolled form groups four corrections per accumulate; it must stay
// within the variant-equivalence tolerance of the plain kernel.
func TestConfGramRHSFusedUnrolledClose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, k, omega = 80, 12, 31
	fixed, cols, vals := implicitFixture(rng, n, k, omega)
	g := NewSharedGram(k)
	g.Compute(fixed)

	plainP := make([]float32, PackedLen(k))
	plainS := make([]float32, k)
	cf := make([]float32, 4*k)
	ConfGramRHSFused(fixed.Data, k, cols, vals, 40, g.Packed, plainP, plainS, cf)

	unrP := make([]float32, PackedLen(k))
	unrS := make([]float32, k)
	ConfGramRHSFusedUnrolled(fixed.Data, k, cols, vals, 40, g.Packed, unrP, unrS, cf)

	for i := range plainP {
		if d := math.Abs(float64(plainP[i]) - float64(unrP[i])); d > 2e-3*(1+math.Abs(float64(plainP[i]))) {
			t.Fatalf("packed slot %d: plain %v vs unrolled %v", i, plainP[i], unrP[i])
		}
	}
	for i := range plainS {
		if d := math.Abs(float64(plainS[i]) - float64(unrS[i])); d > 2e-3*(1+math.Abs(float64(plainS[i]))) {
			t.Fatalf("svec %d: plain %v vs unrolled %v", i, plainS[i], unrS[i])
		}
	}
}

// ConfRHS must reproduce the fused kernel's right-hand side exactly — the
// CG and block paths build only the RHS and must not drift from the direct
// path's.
func TestConfRHSMatchesFused(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, k, omega = 60, 10, 17
	fixed, cols, vals := implicitFixture(rng, n, k, omega)
	g := NewSharedGram(k)
	g.Compute(fixed)
	packed := make([]float32, PackedLen(k))
	svec := make([]float32, k)
	cf := make([]float32, k)
	ConfGramRHSFused(fixed.Data, k, cols, vals, 40, g.Packed, packed, svec, cf)
	rhs := make([]float32, k)
	ConfRHS(fixed.Data, k, cols, vals, 40, rhs)
	for i := range rhs {
		if rhs[i] != svec[i] {
			t.Fatalf("component %d: ConfRHS %v != fused svec %v", i, rhs[i], svec[i])
		}
	}
}

// SharedGram's float32 projections must agree with each other (packed slot
// (i,j) == dense (i,j) == dense (j,i)) — the CG matvec reads Dense, the
// fused kernels read Packed, and the two paths must start from identical
// bases.
func TestSharedGramProjectionsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, k = 37, 9
	fixed := NewDense(n, k)
	for i := range fixed.Data {
		fixed.Data[i] = rng.Float32() - 0.5
	}
	g := NewSharedGram(k)
	g.Compute(fixed)
	idx := 0
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			if g.Packed[idx] != g.Dense[i*k+j] || g.Packed[idx] != g.Dense[j*k+i] {
				t.Fatalf("slot (%d,%d): packed %v dense %v / %v", i, j,
					g.Packed[idx], g.Dense[i*k+j], g.Dense[j*k+i])
			}
			idx++
		}
	}
}

// SharedGram.Compute widens each factor row once; the loop it replaced
// converted both operands of every product. The products and their order are
// the same, so every projection must be bit-equal to that loop's — kept here
// as the reference — and Wide must be Dense, widened.
func TestSharedGramMatchesPerPairConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 3, 8, 10, 33} {
		fixed := NewDense(5*k+7, k)
		for i := range fixed.Data {
			fixed.Data[i] = rng.Float32()*2 - 1
		}
		ref := make([]float64, k*k)
		for row := 0; row < fixed.Rows; row++ {
			f := fixed.Row(row)
			for i := 0; i < k; i++ {
				fi := float64(f[i])
				for j := i; j < k; j++ {
					ref[i*k+j] += fi * float64(f[j])
				}
			}
		}
		g := NewSharedGram(k)
		g.Compute(fixed)
		g.Compute(fixed) // a second half must not see the first one's sums
		idx := 0
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				want := float32(ref[i*k+j])
				if g.Dense[i*k+j] != want || g.Dense[j*k+i] != want || g.Packed[idx] != want {
					t.Fatalf("k=%d slot (%d,%d): dense %v / %v, packed %v, reference %v",
						k, i, j, g.Dense[i*k+j], g.Dense[j*k+i], g.Packed[idx], want)
				}
				idx++
			}
		}
		for i, v := range g.Dense {
			if g.Wide[i] != float64(v) {
				t.Fatalf("k=%d: Wide[%d] = %v, Dense %v", k, i, g.Wide[i], v)
			}
		}

		// The float64 sums themselves, not a projection, are what Frob reads.
		x := make([]float64, k)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		var want float64
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want += x[i] * ref[min(i, j)*k+max(i, j)] * x[j]
			}
		}
		if got := gramQuad(g, x); math.Abs(got-want) > 1e-13*math.Abs(want) {
			t.Fatalf("k=%d: xᵀ(f64)x = %.17g, dense xᵀGx = %.17g", k, got, want)
		}
	}
}
