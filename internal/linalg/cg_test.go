package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func finiteSlice(x []float32) bool {
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// Property (satellite): on random SPD systems of every tested k, CG run to
// 2k iterations (its exact-arithmetic termination bound is k; the slack
// absorbs float32 rounding of the matvec) matches the direct Cholesky solve
// within 1e-5. The systems are the class ALS produces: YᵀY + λI from a
// random slab, solved against a random right-hand side.
func TestCGMatchesCholeskyOnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{8, 16, 32} {
		for trial := 0; trial < 20; trial++ {
			a := randomSPD(rng, k, k+8, 0.5)
			b := make([]float32, k)
			for i := range b {
				b[i] = rng.Float32()*2 - 1
			}
			want := append([]float32(nil), b...)
			if err := CholeskySolve(a.Clone(), want); err != nil {
				t.Fatalf("k=%d trial %d: Cholesky: %v", k, trial, err)
			}
			sys := &CGSystem{G: a.Data, K: k}
			x := make([]float32, k)
			r, p, ap := make([]float32, k), make([]float32, k), make([]float32, k)
			if err := CGSolve(sys, b, x, 2*k, r, p, ap); err != nil {
				t.Fatalf("k=%d trial %d: CG: %v", k, trial, err)
			}
			for i := range x {
				if d := math.Abs(float64(x[i]) - float64(want[i])); d > 1e-5 {
					t.Fatalf("k=%d trial %d: component %d differs by %g (cg=%g chol=%g)",
						k, trial, i, d, x[i], want[i])
				}
			}
		}
	}
}

// The rank-1 (implicit-shaped) application path must agree with applying the
// explicitly assembled matrix.
func TestCGImplicitApplyMatchesAssembled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, omega = 12, 9
	fixed := make([]float32, (omega+3)*k)
	for i := range fixed {
		fixed[i] = rng.Float32()*2 - 1
	}
	cols := make([]int32, omega)
	vals := make([]float32, omega)
	for z := range cols {
		cols[z] = int32(z + 2)
		vals[z] = rng.Float32() * 5
	}
	g := NewSharedGram(k)
	g.Compute(NewDenseFrom(omega+3, k, fixed))
	const alpha, lam = 3.5, 0.25

	// Assemble A = G + Σ α·r f fᵀ + λI densely.
	a := NewDense(k, k)
	copy(a.Data, g.Dense)
	for z, c := range cols {
		f := fixed[int(c)*k : int(c)*k+k]
		conf := float32(alpha) * vals[z]
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				a.Data[i*k+j] += conf * f[i] * f[j]
			}
		}
	}
	a.AddDiag(lam)

	sys := &CGSystem{G: g.Dense, K: k, Src: fixed, Cols: cols, Vals: vals, Alpha: alpha, Lam: lam}
	p := make([]float32, k)
	for i := range p {
		p[i] = rng.Float32()*2 - 1
	}
	got := make([]float32, k)
	sys.Apply(p, got)
	for i := 0; i < k; i++ {
		want := Dot(a.Row(i), p)
		if d := math.Abs(float64(got[i]) - want); d > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("component %d: implicit apply %g vs assembled %g", i, got[i], want)
		}
	}
}

// Property (satellite): degenerate systems produce a typed breakdown error
// — never NaN factors. The zero matrix and an inconsistent rank-1 system
// both have zero curvature along the first search direction.
func TestCGDegenerateBreaksDownFinite(t *testing.T) {
	const k = 8
	b := make([]float32, k)
	b[1] = 1

	cases := []struct {
		name string
		sys  *CGSystem
	}{
		{"zero matrix", &CGSystem{G: make([]float32, k*k), K: k}},
		{"inconsistent rank-1", func() *CGSystem {
			f := make([]float32, k)
			f[0] = 1 // A = e0·e0ᵀ, b = e1 ∉ range(A)
			return &CGSystem{K: k, Src: f, Cols: []int32{0}}
		}()},
	}
	for _, tc := range cases {
		x := make([]float32, k)
		r, p, ap := make([]float32, k), make([]float32, k), make([]float32, k)
		err := CGSolve(tc.sys, b, x, 3*k, r, p, ap)
		if err == nil {
			t.Fatalf("%s: expected breakdown, got nil", tc.name)
		}
		if !errors.Is(err, ErrCGBreakdown) {
			t.Fatalf("%s: error not typed ErrCGBreakdown: %v", tc.name, err)
		}
		if !finiteSlice(x) {
			t.Fatalf("%s: x not finite after breakdown: %v", tc.name, x)
		}
	}
}

// A consistent singular system (b in the range of A) is solved by CG
// without tripping the breakdown guard — the residual hits the floor first.
func TestCGConsistentSingular(t *testing.T) {
	const k = 6
	f := make([]float32, k)
	for i := range f {
		f[i] = float32(i + 1)
	}
	sys := &CGSystem{K: k, Src: f, Cols: []int32{0}} // A = f·fᵀ, singular
	b := make([]float32, k)
	ff := Dot(f, f)
	for i := range b {
		b[i] = float32(2 * float64(f[i])) // b = 2f = A·x with x = 2f/(fᵀf)
	}
	x := make([]float32, k)
	r, p, ap := make([]float32, k), make([]float32, k), make([]float32, k)
	if err := CGSolve(sys, b, x, k, r, p, ap); err != nil {
		t.Fatalf("consistent singular system: %v", err)
	}
	for i := range x {
		want := 2 * float64(f[i]) / ff
		if d := math.Abs(float64(x[i]) - want); d > 1e-5 {
			t.Fatalf("component %d: %g want %g", i, x[i], want)
		}
	}
}

// Warm starts from the exact solution must be a no-op (the residual floor),
// the property that makes CG cheap on converged late iterations.
func TestCGWarmStartNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 16
	a := randomSPD(rng, k, k+4, 1)
	want := make([]float32, k)
	for i := range want {
		want[i] = rng.Float32()
	}
	b := make([]float32, k)
	sys := &CGSystem{G: a.Data, K: k}
	sys.Apply(want, b)
	x := append([]float32(nil), want...)
	// Solve A·x = A·want starting at want with a single allowed iteration:
	// the residual is rounding-level, so x must stay put.
	r, p, ap := make([]float32, k), make([]float32, k), make([]float32, k)
	if err := CGSolve(sys, b, x, 1, r, p, ap); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(float64(x[i]) - float64(want[i])); d > 1e-4 {
			t.Fatalf("warm start drifted: component %d by %g", i, d)
		}
	}
}

// cgApplyFixture is an implicit-shaped system over n random factor rows:
// the shared Gram of all of them plus omega of them as rank-1 terms.
func cgApplyFixture(rng *rand.Rand, n, k, omega int) (*SharedGram, CGSystem) {
	fixed := NewDense(n, k)
	for i := range fixed.Data {
		fixed.Data[i] = rng.Float32()*2 - 1
	}
	cols := make([]int32, omega)
	vals := make([]float32, omega)
	for z := range cols {
		cols[z] = int32(rng.Intn(n))
		vals[z] = 0.5 + rng.Float32()*4.5
	}
	g := NewSharedGram(k)
	g.Compute(fixed)
	return g, CGSystem{K: k, Src: fixed.Data, Cols: cols, Vals: vals, Alpha: 5, Lam: 0.1}
}

// Apply against a dense float64 reference of the same operator, for k on
// both sides of every unroll and stack-scratch boundary, with the base given
// as G, as the widened Gram, and not at all (the explicit form). The two
// spellings of the base hold the same values, so they must agree bit for bit.
func TestCGApplyMatchesFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 3, 8, 10, 64, 65, cgStackK + 1} {
		g, sys := cgApplyFixture(rng, 3*k+5, k, 7)
		p := make([]float32, k)
		for i := range p {
			p[i] = rng.Float32()*2 - 1
		}
		ref := func(base bool, unit bool) []float64 {
			out := make([]float64, k)
			for i := range out {
				out[i] = float64(sys.Lam) * float64(p[i])
				for j := 0; base && j < k; j++ {
					out[i] += float64(g.Dense[i*k+j]) * float64(p[j])
				}
			}
			for z, c := range sys.Cols {
				f := sys.Src[int(c)*k : int(c)*k+k]
				w := float64(sys.Alpha) * float64(sys.Vals[z])
				if unit {
					w = 1
				}
				d := w * Dot(f, p)
				for i := range out {
					out[i] += d * float64(f[i])
				}
			}
			return out
		}
		check := func(name string, s CGSystem, want []float64) []float32 {
			got := make([]float32, k)
			s.Apply(p, got)
			for i := range got {
				if d := math.Abs(float64(got[i]) - want[i]); d > 1e-5*(1+math.Abs(want[i])) {
					t.Fatalf("k=%d %s: component %d = %g, reference %g", k, name, i, got[i], want[i])
				}
			}
			return got
		}
		withG, withWide, explicit := sys, sys, sys
		withG.G = g.Dense
		withWide.GWide = g.Wide
		withWide.Wide = make([]float64, k)
		explicit.Vals = nil
		a := check("G", withG, ref(true, false))
		b := check("GWide", withWide, ref(true, false))
		check("no base", explicit, ref(false, true))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("k=%d: component %d differs between G (%g) and GWide (%g)", k, i, a[i], b[i])
			}
		}
		if k <= cgStackK {
			if n := testing.AllocsPerRun(20, func() { withG.Apply(p, a) }); n != 0 {
				t.Fatalf("k=%d: Apply without caller scratch allocates %v times", k, n)
			}
		}
	}
}

// BenchmarkCGApply is one matvec of the implicit CG solve — the widened Gram
// alone and with 20 rank-1 terms — through the portable bodies and through
// this build's kernels (the same thing under -tags purego).
func BenchmarkCGApply(b *testing.B) {
	for _, k := range []int{32, 64} {
		for _, omega := range []int{0, 20} {
			g, sys := cgApplyFixture(rand.New(rand.NewSource(1)), 500, k, omega)
			sys.GWide, sys.Wide = g.Wide, make([]float64, k)
			p, out := make([]float32, k), make([]float32, k)
			for i := range p {
				p[i] = float32(i%7) - 3
			}
			b.Run(fmt.Sprintf("k%d/rank1=%d/portable", k, omega), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					applyPortable(&sys, p, out)
				}
			})
			b.Run(fmt.Sprintf("k%d/rank1=%d/kernel", k, omega), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sys.Apply(p, out)
				}
			})
		}
	}
}
