package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds YᵀY + λI from a random (omega×k) Y slab — exactly the
// matrix class ALS feeds to Cholesky.
func randomSPD(rng *rand.Rand, k, omega int, lambda float32) *Dense {
	y := make([]float32, omega*k)
	for i := range y {
		y[i] = rng.Float32()*2 - 1
	}
	cols := make([]int32, omega)
	for i := range cols {
		cols[i] = int32(i)
	}
	a := NewDense(k, k)
	GramRegister(y, k, cols, a.Data)
	a.AddDiag(lambda)
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 5, 10, 32, 64} {
		a := randomSPD(rng, k, k+5, 0.1)
		orig := a.Clone()
		if err := Cholesky(a); err != nil {
			t.Fatalf("k=%d: Cholesky: %v", k, err)
		}
		// Verify L·Lᵀ == original in the lower triangle (and by symmetry all).
		for i := 0; i < k; i++ {
			for j := 0; j <= i; j++ {
				var s float64
				for p := 0; p <= j; p++ {
					s += float64(a.At(i, p)) * float64(a.At(j, p))
				}
				want := float64(orig.At(i, j))
				if math.Abs(s-want) > 1e-3*(1+math.Abs(want)) {
					t.Fatalf("k=%d: (LLᵀ)[%d][%d] = %g, want %g", k, i, j, s, want)
				}
			}
		}
	}
}

func TestSolveCholeskyResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 3, 10, 50} {
		a := randomSPD(rng, k, 2*k, 0.1)
		orig := a.Clone()
		b := make([]float32, k)
		for i := range b {
			b[i] = rng.Float32()*4 - 2
		}
		rhs := make([]float32, k)
		copy(rhs, b)
		if err := CholeskySolve(a, b); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Residual ‖A·x − rhs‖∞ should be tiny relative to ‖rhs‖.
		for i := 0; i < k; i++ {
			var s float64
			for j := 0; j < k; j++ {
				s += float64(orig.At(i, j)) * float64(b[j])
			}
			if math.Abs(s-float64(rhs[i])) > 1e-2 {
				t.Fatalf("k=%d: residual[%d] = %g", k, i, s-float64(rhs[i]))
			}
		}
	}
}

func TestCholeskyKnown2x2(t *testing.T) {
	// A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]].
	a := NewDenseFrom(2, 2, []float32{4, 2, 2, 3})
	if err := Cholesky(a); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(a.At(0, 0))-2) > 1e-6 {
		t.Errorf("L[0][0] = %g, want 2", a.At(0, 0))
	}
	if math.Abs(float64(a.At(1, 0))-1) > 1e-6 {
		t.Errorf("L[1][0] = %g, want 1", a.At(1, 0))
	}
	if math.Abs(float64(a.At(1, 1))-math.Sqrt2) > 1e-6 {
		t.Errorf("L[1][1] = %g, want sqrt(2)", a.At(1, 1))
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDenseFrom(2, 2, []float32{1, 2, 2, 1}) // eigenvalues 3, -1
	err := Cholesky(a)
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	a := NewDense(2, 3)
	if err := Cholesky(a); err == nil {
		t.Fatal("accepted non-square matrix")
	}
}

func TestSolveCholeskyShapeErrors(t *testing.T) {
	a := NewDenseFrom(2, 2, []float32{4, 0, 0, 4})
	if err := Cholesky(a); err != nil {
		t.Fatal(err)
	}
	if err := SolveCholesky(a, make([]float32, 3)); err == nil {
		t.Fatal("accepted wrong-length rhs")
	}
}

func TestLDLSolveMatchesCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 4, 12} {
		a := randomSPD(rng, k, k+3, 0.05)
		b := make([]float32, k)
		for i := range b {
			b[i] = rng.Float32()
		}
		a2 := a.Clone()
		b2 := make([]float32, k)
		copy(b2, b)
		if err := CholeskySolve(a, b); err != nil {
			t.Fatal(err)
		}
		if err := LDLSolve(a2, b2); err != nil {
			t.Fatal(err)
		}
		for i := range b {
			if math.Abs(float64(b[i])-float64(b2[i])) > 1e-3 {
				t.Fatalf("k=%d: x[%d]: Cholesky %g vs LDL %g", k, i, b[i], b2[i])
			}
		}
	}
}

func TestLDLSolveIndefinite(t *testing.T) {
	// LDL handles symmetric indefinite systems Cholesky rejects.
	a := NewDenseFrom(2, 2, []float32{1, 2, 2, 1})
	b := []float32{3, 3}
	if err := LDLSolve(a, b); err != nil {
		t.Fatal(err)
	}
	// Solution of [[1,2],[2,1]]x = [3,3] is x = [1,1].
	if math.Abs(float64(b[0])-1) > 1e-5 || math.Abs(float64(b[1])-1) > 1e-5 {
		t.Fatalf("x = %v, want [1 1]", b)
	}
}

// TestCholeskySolveProperty: for random SPD systems the solve recovers a
// planted solution. This is the quick-check form of the ALS S3 invariant.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(20) + 1
		a := randomSPD(rng, k, k+8, 0.5)
		// Plant x, compute b = A·x, then solve and compare.
		x := make([]float32, k)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		b := make([]float32, k)
		for i := 0; i < k; i++ {
			var s float64
			for j := 0; j < k; j++ {
				s += float64(a.At(i, j)) * float64(x[j])
			}
			b[i] = float32(s)
		}
		if err := CholeskySolve(a, b); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(float64(b[i])-float64(x[i])) > 5e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
