//go:build linux

package linalg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// TestRowKernelsNeverReadPastARow: a 16-byte load or store that ran over the
// end of the last factor row, the ratings, packed, svec, the triangle being
// factored or its strip — or of ConfRHS's row or svec — would hit the guard
// page and kill the test binary. The widths put every strip remainder (mod
// 8, mod 4) against the page.
func TestRowKernelsNeverReadPastARow(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for k := 1; k <= 40; k++ {
		for _, omega := range []int{4, 9} {
			ref := fusedFixture(rng, k, omega)
			c := *ref
			c.y = asmtest.Guarded[float32](t, len(ref.y))
			c.vals = asmtest.Guarded[float32](t, omega)
			copy(c.y, ref.y)
			copy(c.vals, ref.vals)
			c.cols[3] = int32(c.rows() - 1) // the row that ends at the guard page, inside a block of four
			packed := asmtest.Guarded[float32](t, PackedLen(k))
			mustMatchFused(t, &c, packed, asmtest.Guarded[float32](t, k), fmt.Sprintf("guarded k=%d omega=%d", k, omega))

			AddDiagPacked(packed, k, 0.1)
			acc := asmtest.Guarded[float64](t, k)
			mustMatchCholesky(t, packed, k, acc, fmt.Sprintf("guarded k=%d", k))
			// Every pivot row's strip ending at the page, not only the first's.
			for j := 0; j < k; j++ {
				cholSweep(packed, k, j, acc[j:])
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64} {
		f, out := asmtest.Guarded[float32](t, n), asmtest.Guarded[float32](t, n)
		for i := range f {
			f[i], out[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		}
		mustMatchAxpy32(t, 1.5, f, out, fmt.Sprintf("guarded axpy32 n=%d", n))
	}
}
