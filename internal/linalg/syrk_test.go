package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomFactor(rng *rand.Rand, n, k int) []float32 {
	y := make([]float32, n*k)
	for i := range y {
		y[i] = rng.Float32()*2 - 1
	}
	return y
}

func randomGather(rng *rand.Rand, n, omega int) ([]int32, []float32) {
	cols := make([]int32, omega)
	vals := make([]float32, omega)
	for i := range cols {
		cols[i] = int32(rng.Intn(n))
		vals[i] = float32(rng.Intn(5) + 1)
	}
	return cols, vals
}

// referenceGram is an intentionally naive float64 implementation the three
// production kernels are checked against.
func referenceGram(y []float32, k int, cols []int32) []float64 {
	out := make([]float64, k*k)
	for _, c := range cols {
		row := y[int(c)*k : int(c)*k+k]
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				out[i*k+j] += float64(row[i]) * float64(row[j])
			}
		}
	}
	return out
}

// TestGramVariantsAgree: the paper defines code variants as "functionally
// equivalent" implementations (Sec. III-D); the three host Gram kernels must
// produce the same matrix.
func TestGramVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 5, 10, 16, 33} {
		for _, omega := range []int{0, 1, 7, 100} {
			y := randomFactor(rng, 50, k)
			cols, _ := randomGather(rng, 50, omega)
			ref := referenceGram(y, k, cols)
			scratch := make([]float32, k*k)
			impls := map[string]func([]float32, int, []int32, []float32){
				"scatter": func(y []float32, k int, cols []int32, smat []float32) {
					GramScatter(y, k, cols, smat, scratch)
				},
				"register": GramRegister,
				"unrolled": GramUnrolled,
			}
			for name, fn := range impls {
				smat := make([]float32, k*k)
				// Pre-poison to verify full overwrite.
				for i := range smat {
					smat[i] = float32(math.NaN())
				}
				fn(y, k, cols, smat)
				for i := 0; i < k*k; i++ {
					if math.Abs(float64(smat[i])-ref[i]) > 1e-2*(1+math.Abs(ref[i])) {
						t.Fatalf("k=%d omega=%d %s: smat[%d] = %g, want %g", k, omega, name, i, smat[i], ref[i])
					}
				}
				// Symmetry check.
				for i := 0; i < k; i++ {
					for j := 0; j < k; j++ {
						if smat[i*k+j] != smat[j*k+i] {
							t.Fatalf("%s: asymmetric at (%d,%d)", name, i, j)
						}
					}
				}
			}
		}
	}
}

func TestGatherGaxpyVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range []int{1, 3, 10, 17} {
		y := randomFactor(rng, 40, k)
		cols, vals := randomGather(rng, 40, 25)
		ref := make([]float64, k)
		for z, c := range cols {
			row := y[int(c)*k : int(c)*k+k]
			for i := range row {
				ref[i] += float64(vals[z]) * float64(row[i])
			}
		}
		for name, fn := range map[string]func([]float32, int, []int32, []float32, []float32){
			"plain":    GatherGaxpy,
			"unrolled": GatherGaxpyUnrolled,
		} {
			svec := make([]float32, k)
			for i := range svec {
				svec[i] = 42 // must be overwritten
			}
			fn(y, k, cols, vals, svec)
			for i := range svec {
				if math.Abs(float64(svec[i])-ref[i]) > 1e-3*(1+math.Abs(ref[i])) {
					t.Fatalf("k=%d %s: svec[%d] = %g, want %g", k, name, i, svec[i], ref[i])
				}
			}
		}
	}
}

// TestGramQuick: property form over random shapes.
func TestGramQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(12) + 1
		n := rng.Intn(30) + 1
		omega := rng.Intn(40)
		y := randomFactor(rng, n, k)
		cols, _ := randomGather(rng, n, omega)
		a := make([]float32, k*k)
		b := make([]float32, k*k)
		GramScatter(y, k, cols, a, make([]float32, k*k))
		GramUnrolled(y, k, cols, b)
		for i := range a {
			if math.Abs(float64(a[i])-float64(b[i])) > 1e-2*(1+math.Abs(float64(a[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotNrm2Sq(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
	if got := Nrm2Sq([]float32{3, 4}); got != 25 {
		t.Fatalf("Nrm2Sq = %g, want 25", got)
	}
}

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 {
		t.Fatal("Set/At broken")
	}
	if len(d.Row(1)) != 3 || d.Row(1)[2] != 5 {
		t.Fatal("Row view broken")
	}
	cl := d.Clone()
	cl.Set(0, 0, 9)
	if d.At(0, 0) == 9 {
		t.Fatal("Clone shares storage")
	}
}

func TestSymmetrizeAddDiag(t *testing.T) {
	d := NewDenseFrom(2, 2, []float32{1, 7, 0, 2})
	d.AddDiag(0.5)
	if d.At(0, 0) != 1.5 || d.At(1, 1) != 2.5 {
		t.Fatal("AddDiag broken")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewDenseFrom(1, 3, []float32{1, 2, 3})
	b := NewDenseFrom(1, 3, []float32{1, 2.5, 2})
	if got := MaxAbsDiff(a, b); got != 1 {
		t.Fatalf("MaxAbsDiff = %g, want 1", got)
	}
	// A NaN on either side is no match, whatever the other elements say.
	nan := NewDenseFrom(1, 2, []float32{float32(math.NaN()), 1})
	ones := NewDenseFrom(1, 2, []float32{1, 1})
	if got := MaxAbsDiff(nan, ones); !math.IsInf(got, 1) {
		t.Fatalf("MaxAbsDiff([NaN 1], [1 1]) = %g, want +Inf", got)
	}
	if got := MaxAbsDiff(ones, nan); !math.IsInf(got, 1) {
		t.Fatalf("MaxAbsDiff([1 1], [NaN 1]) = %g, want +Inf", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewDense negative", func() { NewDense(-1, 2) })
	mustPanic("NewDenseFrom wrong len", func() { NewDenseFrom(2, 2, make([]float32, 3)) })
	mustPanic("AddDiag non-square", func() { NewDense(2, 3).AddDiag(1) })
	mustPanic("MaxAbsDiff shape", func() { MaxAbsDiff(NewDense(1, 2), NewDense(2, 1)) })
}

func TestDenseString(t *testing.T) {
	small := NewDense(2, 2)
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	big := NewDense(20, 20)
	if got := big.String(); got != "Dense 20x20" {
		t.Fatalf("big String = %q", got)
	}
}
