package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asmtest"
)

// The contract of gramTile, and through it of SharedGram, is equality of
// bits: with its portable body, and of that with the plain triple loop over
// the upper triangle that internal/solvers' reference runs. No tolerance;
// two NaNs count as equal (sameBits).

// gramPlain is the float64 Gram's upper triangle as the plain triple loop,
// factor rows taken in the order rowAt gives them.
func gramPlain(f []float32, rows, k int, rowAt func(n int) int) []float64 {
	g := make([]float64, k*k)
	for n := 0; n < rows; n++ {
		fr := f[rowAt(n)*k:][:k]
		for i := 0; i < k; i++ {
			fi := float64(fr[i])
			for j := i; j < k; j++ {
				g[i*k+j] += fi * float64(fr[j])
			}
		}
	}
	return g
}

func ascending(n int) int { return n }

// gramOracle is SharedGram.Compute with the accumulation spelled as the
// plain triple loop.
func gramOracle(g *SharedGram, fixed *Dense) {
	copy(g.f64, gramPlain(fixed.Data, fixed.Rows, g.K, ascending))
	g.Finish()
}

// The three mutants are the ways a tiled kernel goes wrong without failing a
// well-scaled test: each must differ from gramPlain on planted inputs
// (TestGramPlantRevealsMutants), or the equality tests below prove nothing.

// gramMutantRowsDescending adds the same products last factor row first.
func gramMutantRowsDescending(f []float32, rows, k int) []float64 {
	return gramPlain(f, rows, k, func(n int) int { return rows - 1 - n })
}

// gramMutantBlocksMerged sums each block of gramBlock rows on its own and
// adds the block sums: the blocked reduction a tile zeroed per block, or a
// split over factor rows, would compute.
func gramMutantBlocksMerged(f []float32, rows, k int) []float64 {
	g := make([]float64, k*k)
	for r0 := 0; r0 < rows; r0 += gramBlock {
		n := min(gramBlock, rows-r0)
		for i, v := range gramPlain(f[r0*k:], n, k, ascending) {
			g[i] += v
		}
	}
	return g
}

// gramMutantLanesSwapped gives each column of a lane pair its neighbour's
// product, as a tile row multiplied by (c1, c0) would.
func gramMutantLanesSwapped(f []float32, rows, k int) []float64 {
	g := make([]float64, k*k)
	for r := 0; r < rows; r++ {
		fr := f[r*k:][:k]
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				if j^1 >= i && j^1 < k {
					g[i*k+j] += float64(fr[i]) * float64(fr[j^1])
				}
			}
		}
	}
	return g
}

// plantGramCancellations makes the Gram's sums order-revealing. Products of
// float32 values are exact in float64, and on well-scaled data a float64 sum
// taken in another order moves a last bit that no float32 projection shows.
// So at k/8 pairs of columns (i0, j0) the factor row a quarter of the way
// down holds (2^20, 2^20) and the one three quarters down (2^20, −2^20):
// element (i0, j0) is parked at 2^40 between them, where it absorbs every
// product added to it down to 2^-12 — which bits that costs depends on the
// order of the rows in between and on whether they were added one by one —
// and then returns exactly. The two rows sit in different blocks once there
// are more than two blocks of rows.
func plantGramCancellations(rng *rand.Rand, f []float32, rows, k int) {
	r1, r2 := rows/4, 3*rows/4
	if r1 == r2 {
		return
	}
	perm := rng.Perm(k)
	for n := 0; n < max(1, k/8) && 2*n+1 < k; n++ {
		i0, j0 := perm[2*n], perm[2*n+1]
		f[r1*k+i0], f[r1*k+j0] = 1<<20, 1<<20
		f[r2*k+i0], f[r2*k+j0] = 1<<20, -(1 << 20)
	}
}

// upperDiffers reports whether two Grams differ anywhere in the upper
// triangle.
func upperDiffers(a, b []float64, k int) bool {
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			if !sameBits(a[i*k+j], b[i*k+j]) {
				return true
			}
		}
	}
	return false
}

func TestGramPlantRevealsMutants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, k := range []int{4, 8, 20, 64} {
		const rows = 1000
		f := randomFactor(rng, rows, k)
		plantGramCancellations(rng, f, rows, k)
		want := gramPlain(f, rows, k, ascending)
		for name, mutant := range map[string]func([]float32, int, int) []float64{
			"rows descending": gramMutantRowsDescending,
			"blocks merged":   gramMutantBlocksMerged,
			"lanes swapped":   gramMutantLanesSwapped,
		} {
			if !upperDiffers(mutant(f, rows, k), want, k) {
				t.Errorf("k=%d: mutant %q matches the plain loop bit for bit: the planted inputs reveal nothing", k, name)
			}
		}
	}
}

// gramWidths is every k the tile kernel takes (multiples of four up to 132,
// and 256) and a few it hands to the portable body whole.
func gramWidths() []int {
	ks := []int{1, 3, 10, 63, 130, 256}
	for k := 4; k <= 132; k += 4 {
		ks = append(ks, k)
	}
	return ks
}

// mustMatchGram holds got, computed from fixed by this build's kernel, to the
// portable body driven the same way and both to the plain loop: the float64
// upper triangle and every projection.
func mustMatchGram(t testing.TB, got *SharedGram, fixed *Dense, what string) {
	t.Helper()
	k := got.K
	want, port := NewSharedGram(k), NewSharedGram(k)
	gramOracle(want, fixed)
	for r0 := 0; r0 < fixed.Rows; r0 += gramBlock {
		for b := 0; b < (k+3)/4; b++ {
			gramTilePortable(fixed.Data[r0*k:min(r0+gramBlock, fixed.Rows)*k], k, port.f64, b, port.scratch)
		}
	}
	port.Finish()
	for i := range want.f64 {
		if !sameBits(port.f64[i], want.f64[i]) {
			t.Fatalf("%s: Gram entry (%d,%d): portable %x, plain loop %x", what, i/k, i%k,
				math.Float64bits(port.f64[i]), math.Float64bits(want.f64[i]))
		}
		if !sameBits(got.f64[i], want.f64[i]) {
			t.Fatalf("%s: Gram entry (%d,%d): %s %x, plain loop %x", what, i/k, i%k, KernelName(),
				math.Float64bits(got.f64[i]), math.Float64bits(want.f64[i]))
		}
		if !sameBits32(got.Dense[i], want.Dense[i]) || !sameBits(got.Wide[i], want.Wide[i]) {
			t.Fatalf("%s: projection %d differs", what, i)
		}
	}
	for i := range want.Packed {
		if !sameBits32(got.Packed[i], want.Packed[i]) {
			t.Fatalf("%s: packed slot %d differs", what, i)
		}
	}
}

// TestGramTileMatchesPortable: widths on both sides of the kernel's regime,
// row counts on both sides of a block, order-revealing and special values.
// (The name TestSharedGramComputeMatchesPlainLoop is the same contract on
// the public entry point and stays below.)
func TestGramTileMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, k := range gramWidths() {
		g := NewSharedGram(k)
		for _, rows := range []int{0, 1, 63, 64, 65, 1000} {
			if rows == 1000 && k > 64 && k%32 != 0 {
				continue // the long run at a sample of the wide widths
			}
			fixed := &Dense{Rows: rows, Cols: k, Data: randomFactor(rng, rows, k)}
			what := fmt.Sprintf("k=%d rows=%d", k, rows)
			g.Compute(fixed)
			mustMatchGram(t, g, fixed, what+" random")
			plantGramCancellations(rng, fixed.Data, rows, k)
			g.Compute(fixed) // and a second Compute sees none of the first one's sums
			mustMatchGram(t, g, fixed, what+" cancellations")
			for _, finite := range []bool{true, false} {
				for n := 0; n < 3 && rows > 0; n++ {
					fixed.Data[rng.Intn(len(fixed.Data))] = pickSpecial(rng, finite)
				}
				g.Compute(fixed)
				mustMatchGram(t, g, fixed, fmt.Sprintf("%s specials finite=%v", what, finite))
			}
		}
	}
}

// TestSharedGramComputeMatchesPlainLoop: the float64 Gram, and so every
// projection of it, is the plain triple loop's bit for bit.
func TestSharedGramComputeMatchesPlainLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, k := range []int{1, 3, 10, 20, 63, 64} {
		for trial := 0; trial < 3; trial++ {
			fixed := &Dense{Rows: 3*k + 5, Cols: k, Data: randomFactor(rng, 3*k+5, k)}
			for n := 0; n < 2*trial; n++ {
				fixed.Data[rng.Intn(len(fixed.Data))] = pickSpecial(rng, trial == 1)
			}
			got := NewSharedGram(k)
			got.Compute(fixed)
			mustMatchGram(t, got, fixed, fmt.Sprintf("k=%d trial %d", k, trial))
		}
	}
}

// TestGramTileTouchesItsBandOnly: one call on one band, every operand at
// each element offset inside a 16-byte window — so at each 4-byte (factor)
// and 8-byte (Gram, scratch) alignment: the band's rows from the diagonal
// tile rightwards match the portable body, and nothing else in g, nothing
// outside g and nothing outside scratch was written.
func TestGramTileTouchesItsBandOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const sentinel = 12345
	for _, k := range []int{4, 8, 20, 64} {
		for _, rows := range []int{1, 5, gramBlock} {
			ref := randomFactor(rng, rows, k)
			plantGramCancellations(rng, ref, rows, k)
			for off := 0; off < 4*2*2; off++ {
				fOff, gOff, sOff := off&3, off>>2&1, off>>3&1
				b := rng.Intn(k / 4)
				f, _ := asmtest.Unaligned[float32](rows*k, fOff, 0)
				copy(f, ref)
				g, gIntact := asmtest.Unaligned[float64](k*k, gOff, sentinel)
				scratch, sIntact := asmtest.Unaligned[float64](GramScratchLen(k), sOff, sentinel)
				want := make([]float64, k*k)
				for i := range g {
					g[i] = rng.NormFloat64()
					want[i] = g[i]
				}
				gramTilePortable(ref, k, want, b, make([]float64, GramScratchLen(k)))
				gramTile(f, k, g, b, scratch)
				what := fmt.Sprintf("k=%d rows=%d band %d offsets f%d g%d scratch%d", k, rows, b, fOff, gOff, sOff)
				for i := range want {
					if !sameBits(g[i], want[i]) {
						t.Fatalf("%s: entry (%d,%d): %s %x, portable %x", what, i/k, i%k, KernelName(),
							math.Float64bits(g[i]), math.Float64bits(want[i]))
					}
				}
				if !gIntact() || !sIntact() {
					t.Fatalf("%s: an element outside g or scratch was written", what)
				}
			}
		}
	}
}

// TestGramPiecesOnAnyGoroutines: the pieces computed by 1, 2, 3, 4, 7 and 16
// goroutines claiming them from a cursor — what internal/host's pool pass
// does — are Compute's Gram bit for bit. Under -race this is also the check
// that pieces share no word of the Gram.
func TestGramPiecesOnAnyGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k := range []int{1, 10, 20, 64} {
		const rows = 300
		fixed := &Dense{Rows: rows, Cols: k, Data: randomFactor(rng, rows, k)}
		plantGramCancellations(rng, fixed.Data, rows, k)
		want := NewSharedGram(k)
		want.Compute(fixed)
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			got := NewSharedGram(k)
			got.Compute(&Dense{Rows: 1, Cols: k, Data: randomFactor(rng, 1, k)}) // stale sums to overwrite
			computeOnGoroutines(got, fixed, workers)
			for i := range want.f64 {
				if !sameBits(got.f64[i], want.f64[i]) || !sameBits32(got.Dense[i], want.Dense[i]) {
					t.Fatalf("k=%d workers=%d: entry (%d,%d) differs from Compute's", k, workers, i/k, i%k)
				}
			}
		}
	}
}

// computeOnGoroutines is Compute with the pieces claimed from a cursor by n
// goroutines, each with its own scratch, one to three pieces to a claim.
func computeOnGoroutines(g *SharedGram, fixed *Dense, n int) {
	per := 1 + n%3
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]float64, GramScratchLen(g.K))
			for lo := int(cursor.Add(int64(per))) - per; lo < g.Pieces(); lo = int(cursor.Add(int64(per))) - per {
				g.ComputePieces(fixed, lo, min(lo+per, g.Pieces()), scratch)
			}
		}()
	}
	wg.Wait()
	g.Finish()
}

// TestGramFrobIsTheAllPairsBaseline: ⟨SᵀS, FᵀF⟩ is Σ over every (row of S,
// row of F) pair of (s·f)², the sum the implicit objective needs, and is
// what per-row quadratic forms against FᵀF add up to.
func TestGramFrobIsTheAllPairsBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, k := range []int{1, 3, 10, 64} {
		s := &Dense{Rows: 40, Cols: k, Data: randomFactor(rng, 40, k)}
		f := &Dense{Rows: 90, Cols: k, Data: randomFactor(rng, 90, k)}
		gs, gf := NewSharedGram(k), NewSharedGram(k)
		gs.Compute(s)
		gf.Compute(f)
		var pairs, quads float64
		for u := 0; u < s.Rows; u++ {
			for i := 0; i < f.Rows; i++ {
				d := Dot(s.Row(u), f.Row(i))
				pairs += d * d
			}
			quads += gramQuad(gf, widen(s.Row(u)))
		}
		got := gs.Frob(gf)
		if math.Abs(got-pairs) > 1e-12*pairs || math.Abs(got-quads) > 1e-12*quads {
			t.Errorf("k=%d: Frob = %.17g, Σ(s·f)² = %.17g, Σ sᵀ(FᵀF)s = %.17g", k, got, pairs, quads)
		}
		if back := gf.Frob(gs); back != got {
			t.Errorf("k=%d: Frob is not symmetric: %.17g vs %.17g", k, got, back)
		}
	}
}

// gramQuad is xᵀ(FᵀF)x against the float64 Gram, dense: the per-row form of
// the objective's baseline that Frob replaced, kept as its oracle.
func gramQuad(g *SharedGram, x []float64) float64 {
	k := g.K
	var q float64
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			q += x[i] * g.f64[i*k+j] * x[j]
		}
	}
	return q
}

func TestGramComputeAllocatesNothing(t *testing.T) {
	const k = 20
	fixed := &Dense{Rows: 200, Cols: k, Data: randomFactor(rand.New(rand.NewSource(79)), 200, k)}
	g := NewSharedGram(k)
	scratch := make([]float64, GramScratchLen(k))
	if n := testing.AllocsPerRun(10, func() {
		for p := 0; p < g.Pieces(); p++ {
			g.ComputePieces(fixed, p, p+1, scratch)
		}
		g.Finish()
		g.Compute(fixed)
	}); n != 0 {
		t.Errorf("a Gram allocates %v times, want 0", n)
	}
}

// BenchmarkSharedGramCompute is one Gram of the catalog workload's item
// side (50 000 × 64): the plain loop, Compute on one goroutine, and the
// pieces on GOMAXPROCS goroutines (run with -cpu 1,2).
func BenchmarkSharedGramCompute(b *testing.B) {
	const rows, k = 50000, 64
	fixed := &Dense{Rows: rows, Cols: k, Data: randomFactor(rand.New(rand.NewSource(5)), rows, k)}
	g := NewSharedGram(k)
	b.Run("portable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gramOracle(g, fixed)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Compute(fixed)
		}
	})
	b.Run("pieces", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			computeOnGoroutines(g, fixed, runtime.GOMAXPROCS(0))
		}
	})
}
