package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// screenFixture returns a query of width k8 and blocks·8 rows: 12-bit
// values (the serving screen's range) on most trials, and on every third
// the whole int16 range, −32768 included, where a sum of products wraps
// and only Go's int32 arithmetic says what the kernel must return.
func screenFixture(rng *rand.Rand, k8, blocks, trial int) (xq, rows []int16) {
	level := func() int16 {
		if trial%3 == 2 {
			return int16(rng.Intn(1<<16) - 1<<15)
		}
		return int16(rng.Intn(4095) - 2047)
	}
	xq, rows = make([]int16, k8), make([]int16, blocks*8*k8)
	for j := range xq {
		xq[j] = level()
	}
	for i := range rows {
		rows[i] = level()
	}
	return xq, rows
}

// screenSums is every row's dot in Go's int32 arithmetic.
func screenSums(xq, rows []int16) []int32 {
	k := len(xq)
	sums := make([]int32, len(rows)/k)
	for i := range sums {
		sums[i] = screenDot(xq, rows[i*k:])
	}
	return sums
}

// mustScreenLikePortable runs Screen8 and its portable body at the cuts
// that decide each row: its own sum (the row flags) and one above (it does
// not), and at the extremes, where every row or none flags. One row's cut
// pins the first block with any row at or above it, so the probes check the
// block index as well as the mask.
func mustScreenLikePortable(t *testing.T, xq, rows []int16, what string) {
	t.Helper()
	cuts := []int32{math.MinInt32, math.MaxInt32}
	for _, s := range screenSums(xq, rows) {
		cuts = append(cuts, s)
		if s < math.MaxInt32 {
			cuts = append(cuts, s+1)
		}
	}
	for _, cut := range cuts {
		b, mask := Screen8(xq, rows, cut)
		wb, wmask := screen8Portable(xq, rows, cut)
		if b != wb || mask != wmask {
			t.Fatalf("%s cut=%d: block %d mask %08b, portable block %d mask %08b", what, cut, b, mask, wb, wmask)
		}
	}
}

// TestScreen8MatchesPortable: the SSE2 run returns the portable body's
// block and mask, for widths the kernel takes (multiples of 8 to 512, the
// widest the serving screen builds) and ones that go to the portable body
// on every build (1, 5, 33), runs of one to five blocks with a partial
// block after them, and values that wrap.
func TestScreen8MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, k8 := range []int{1, 5, 8, 16, 32, 33, 64, 128, 512} {
		for _, blocks := range []int{1, 2, 5} {
			for trial := 0; trial < 6; trial++ {
				xq, rows := screenFixture(rng, k8, blocks, trial)
				what := fmt.Sprintf("k8=%d blocks=%d trial=%d", k8, blocks, trial)
				mustScreenLikePortable(t, xq, rows, what)
				// A partial block after the run is not read.
				tail := append(rows[:len(rows):len(rows)], make([]int16, 3*k8)...)
				mustScreenLikePortable(t, xq, tail, what+" with 3 rows after")
			}
		}
	}
	if b, mask := Screen8(make([]int16, 8), nil, math.MinInt32); b != 0 || mask != 0 {
		t.Errorf("no rows: block %d mask %b", b, mask)
	}
}

// TestScreen8Order pins the kernel against hand values: in a run of four
// blocks, row r of block h is worth 100·(r+1) and every other row 0, so a
// swapped pair of accumulators, a reversed compare, a run that stops a
// block early or reports the block after its hit, lands on a wrong bit or
// index.
func TestScreen8Order(t *testing.T) {
	const k8, blocks = 16, 4
	xq := make([]int16, k8)
	xq[k8-1] = 1 // the last component: a loop that skipped it sees zeros
	for h := 0; h < blocks; h++ {
		rows := make([]int16, blocks*8*k8)
		for r := 0; r < 8; r++ {
			rows[(8*h+r)*k8+k8-1] = int16(100 * (r + 1))
		}
		for r := 0; r < 8; r++ {
			cut := int32(100 * (r + 1))
			b, mask := Screen8(xq, rows, cut)
			if want := 0xFF &^ (1<<r - 1); b != h || mask != want {
				t.Errorf("hit in block %d, cut %d: block %d mask %08b, want block %d mask %08b", h, cut, b, mask, h, want)
			}
		}
		if b, mask := Screen8(xq, rows, 801); b != blocks || mask != 0 {
			t.Errorf("hit in block %d, cut above every row: block %d mask %08b, want %d and none", h, b, mask, blocks)
		}
	}
}

// TestScreen8Unaligned starts the rows and the query at each int16 offset
// inside a 16-byte window.
func TestScreen8Unaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, k8 := range []int{8, 32} {
		refX, refRows := screenFixture(rng, k8, 3, 0)
		for off := 0; off < 8*8; off++ {
			rOff, xOff := off&7, off>>3
			rows, rowsIntact := asmtest.Unaligned[int16](len(refRows), rOff, 0x5a5a)
			xq, xIntact := asmtest.Unaligned[int16](k8, xOff, 0x5a5a)
			copy(rows, refRows)
			copy(xq, refX)
			mustScreenLikePortable(t, xq, rows, fmt.Sprintf("k8=%d offsets rows%d x%d", k8, rOff, xOff))
			if !rowsIntact() || !xIntact() {
				t.Fatalf("k8=%d offsets rows%d x%d: the kernel wrote outside its operands", k8, rOff, xOff)
			}
		}
	}
}

// TestMaxRowNorm: the largest row norm, NaN when any row holds a NaN
// (wherever it sits relative to the largest row) and +Inf for an Inf.
func TestMaxRowNorm(t *testing.T) {
	d := NewDenseFrom(3, 2, []float32{3, 4, 0, 1, -6, 8})
	if got := MaxRowNorm(d); got != 10 {
		t.Errorf("MaxRowNorm = %v, want 10", got)
	}
	if got := MaxRowNorm(NewDense(0, 4)); got != 0 {
		t.Errorf("no rows: %v, want 0", got)
	}
	for _, at := range []int{0, 3, 5} {
		for _, v := range []float32{float32(math.NaN()), float32(math.Inf(-1))} {
			c := d.Clone()
			c.Data[at] = v
			got := MaxRowNorm(c)
			if math.IsNaN(float64(v)) != math.IsNaN(got) || !(math.IsNaN(got) || math.IsInf(got, 1)) {
				t.Errorf("%v at %d: MaxRowNorm = %v", v, at, got)
			}
		}
	}
}
