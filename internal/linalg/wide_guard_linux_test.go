//go:build linux

package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// TestWideKernelsNeverReadPastARow: a 16-byte load or store that ran over
// the end of the Gram, the direction, the last factor row or out would
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
}

// TestDot8WideNeverReadsPastARow: the query, the eighth row and out each
// end at a guard page, at a stride equal to k and one wider.
func TestDot8WideNeverReadsPastARow(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, k := range []int{2, 8, 32, 64} {
		for _, stride := range []int{k, k + 1} {
			x := randomFactor(rng, 1, k)
			xw := asmtest.Guarded[float64](t, k)
			copy(xw, widen(x))
			rows := asmtest.Guarded[float32](t, 7*stride+k)
			copy(rows, randomFactor(rng, 1, len(rows)))
			out := asmtest.Guarded[float64](t, 8)
			Dot8Wide(xw, rows, stride, (*[8]float64)(out))
			for r := range 8 {
				if want := Dot(x, rows[r*stride:][:k]); !sameBits(out[r], want) {
					t.Fatalf("guarded k=%d stride=%d row %d: %v, Dot %v", k, stride, r, out[r], want)
				}
			}
		}
	}
}

// TestScreen8NeverReadsPastARow: the query and the run's last row each end
// at a guard page, and the cut rules every row out, so the kernel walks the
// whole run: a load past its last row would fault.
func TestScreen8NeverReadsPastARow(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k8 := range []int{8, 32, 64, 512} {
		for _, blocks := range []int{1, 3} {
			refX, refRows := screenFixture(rng, k8, blocks, 0)
			xq := asmtest.Guarded[int16](t, k8)
			rows := asmtest.Guarded[int16](t, len(refRows))
			copy(xq, refX)
			copy(rows, refRows)
			mustScreenLikePortable(t, xq, rows, fmt.Sprintf("guarded k8=%d blocks=%d", k8, blocks))
		}
	}
}

// TestGramTileNeverReadsPastABlock: the factor block, the Gram and the
// scratch each end at a guard page, and the band is the last one, whose tile
// stores run to the Gram's last element.
func TestGramTileNeverReadsPastABlock(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, k := range []int{4, 8, 20, 64} {
		for _, rows := range []int{1, 5, gramBlock} {
			f := asmtest.Guarded[float32](t, rows*k)
			copy(f, randomFactor(rng, rows, k))
			g, want := asmtest.Guarded[float64](t, k*k), make([]float64, k*k)
			scratch := asmtest.Guarded[float64](t, 8*rows)
			if k > 8*rows {
				scratch = asmtest.Guarded[float64](t, k) // a purego build widens a row into it
			}
			for _, b := range []int{0, k/4 - 1} {
				gramTilePortable(f, k, want, b, make([]float64, GramScratchLen(k)))
				gramTile(f, k, g, b, scratch)
			}
			for i := range want {
				if !sameBits(g[i], want[i]) {
					t.Fatalf("guarded k=%d rows=%d: entry (%d,%d): %s %x, portable %x", k, rows, i/k, i%k, KernelName(),
						math.Float64bits(g[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}
