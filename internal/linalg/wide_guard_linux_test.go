//go:build linux

package linalg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// TestWideKernelsNeverReadPastARow: a 16-byte load or store that ran over
// the end of the Gram, the direction, the last factor row, out, x or y would
// hit the guard page and kill the test binary.
func TestWideKernelsNeverReadPastARow(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{4, 8, 20, 64} {
		ref, p := wideFixture(rng, k, 7, true)
		s := *ref
		s.GWide = asmtest.Guarded[float64](t, k*k)
		s.Wide = asmtest.Guarded[float64](t, k)
		s.Src = asmtest.Guarded[float32](t, len(ref.Src))
		copy(s.GWide, ref.GWide)
		copy(s.Src, ref.Src)
		s.Cols[0] = int32(len(s.Src)/k - 1) // the row that ends at the guard page
		mustMatchApply(t, &s, p, asmtest.Guarded[float32](t, k), fmt.Sprintf("guarded k=%d", k))
	}
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64} {
		x, y := asmtest.Guarded[float64](t, n), asmtest.Guarded[float64](t, n)
		for j := range x {
			x[j], y[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		mustMatchAxpy(t, rng.NormFloat64(), x, y, fmt.Sprintf("guarded axpy n=%d", n))
	}
}
