package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// kernelCall is one call of the int8 scan kernel: rows holds len(scales)/4
// blocks of four rows, k = len(xq) apart.
type kernelCall struct {
	xq, rows       []int8
	scales, bounds []float32
	xs, qnorm, thr float64
}

// mustMatchTwin runs the build's kernel and its Go twin on one call and
// requires the same block, mask and sums, bit for bit.
func mustMatchTwin(t testing.TB, c kernelCall, what string) (b, mask int, sums [4]int32) {
	t.Helper()
	wb, wm, ws := blocksI8Portable(c.xq, c.rows, c.scales, c.bounds, c.xs, c.qnorm, c.thr)
	b, mask, sums = blocksI8(c.xq, c.rows, c.scales, c.bounds, c.xs, c.qnorm, c.thr)
	if b != wb || mask != wm || sums != ws {
		t.Fatalf("%s (thr %v, qnorm %v): %s kernel = block %d mask %04b sums %v, twin = block %d mask %04b sums %v",
			what, c.thr, c.qnorm, KernelName(), b, mask, sums, wb, wm, ws)
	}
	return b, mask, sums
}

// mustMatchPortable checks the kernel's dots on one block (the query and
// four rows at stride k): with thr = −Inf every row is flagged at block 0,
// so the sums come back, and they must be four dotI8s. Integer sums are
// exact, so equality is the whole contract.
func mustMatchPortable(t testing.TB, xq, rows []int8, k int, what string) {
	t.Helper()
	var want [4]int32
	for r := range want {
		want[r] = dotI8(xq, rows[r*k:])
	}
	c := kernelCall{xq: xq, rows: rows[:4*k], scales: []float32{1, 1, 1, 1}, bounds: make([]float32, 4),
		xs: 1, thr: math.Inf(-1)}
	if b, mask, sums := mustMatchTwin(t, c, what); b != 0 || mask != 0b1111 || sums != want {
		t.Fatalf("%s: block %d mask %04b sums %v, want block 0 mask 1111 sums %v (four dotI8)", what, b, mask, sums, want)
	}
}

// dotWidths is every k the kernel's three regimes meet at: below one
// 16-column group, whole groups, groups plus a tail, and two widths large
// enough for many passes of the group loop.
func dotWidths() []int {
	ks := []int{256, 1024}
	for k := 1; k <= 130; k++ {
		ks = append(ks, k)
	}
	return ks
}

func fill(b []int8, v int8) []int8 {
	for i := range b {
		b[i] = v
	}
	return b
}

func randI8(rng *rand.Rand, b []int8) []int8 {
	for i := range b {
		b[i] = int8(rng.Intn(256) - 128)
	}
	return b
}

// TestDot4I8MatchesPortable pins the kernel's dots to the portable ones
// on every int8 value a checkpoint can carry, −128 included (EncodeDense
// clamps to ±127, a decoded checkpoint need not), at every width.
func TestDot4I8MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range dotWidths() {
		xq, rows := make([]int8, k), make([]int8, 4*k)

		for _, xv := range []int8{-128, 127} {
			for _, rv := range []int8{-128, 127} {
				fill(xq, xv)
				fill(rows, rv)
				mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d all %d x all %d", k, xv, rv))
			}
		}

		// −128 × −128 = +16384 is the one product that does not fit a
		// saturating int16 pair sum; put it in each lane of each row alone.
		clear(xq)
		clear(rows)
		for j := 0; j < k; j++ {
			xq[j] = -128
			for r := 0; r < 4; r++ {
				rows[r*k+j] = -128
			}
			mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d lane %d", k, j))
			xq[j] = 0
			for r := 0; r < 4; r++ {
				rows[r*k+j] = 0
			}
		}

		for trial := 0; trial < 4; trial++ {
			mustMatchPortable(t, randI8(rng, xq), randI8(rng, rows), k, fmt.Sprintf("k=%d random %d", k, trial))
		}
	}
}

// nextUp and nextDown are the float64s on either side of v.
func nextUp(v float64) float64   { return math.Nextafter(v, math.Inf(1)) }
func nextDown(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }

// TestBlocksI8Thresholds is the kernel-vs-twin test of the walk: three
// blocks per width, each row's score flagged or not at thresholds on it and
// one float64 either side, and the stop rule's boundary — equal to
// float64(qnorm·bound) + 2⁻¹²⁶ goes on, one above stops — checked against
// the block it must return, not only against the twin.
func TestBlocksI8Thresholds(t *testing.T) {
	const blocks = 3
	rng := rand.New(rand.NewSource(31))
	for _, k := range dotWidths() {
		c := kernelCall{xq: randI8(rng, make([]int8, k)), rows: randI8(rng, make([]int8, 4*blocks*k)),
			scales: make([]float32, 4*blocks), bounds: make([]float32, 4*blocks),
			xs: float64(rng.Float32() + 0.1), qnorm: math.Inf(1)}
		for i := range c.scales {
			c.scales[i] = rng.Float32() + 0.01
			c.bounds[i] = float32(8*blocks - i) // non-increasing, as Rank makes them
		}
		c.scales[5] = 0
		what := fmt.Sprintf("k=%d", k)

		// An infinite qnorm never stops: the walk is the flag test alone.
		for _, thr := range []float64{math.Inf(-1), math.Inf(1)} {
			c.thr = thr
			mustMatchTwin(t, c, what)
		}
		for i := range c.scales {
			s := c.xs * float64(c.scales[i]) * float64(dotI8(c.xq, c.rows[i*k:]))
			for _, thr := range []float64{s, nextUp(s), nextDown(s)} {
				c.thr = thr
				mustMatchTwin(t, c, fmt.Sprintf("%s row %d", what, i))
			}
		}

		// Scores of 0 flag nothing under a positive thr, so only the stop
		// rule ends the walk.
		c.xs = 0
		for _, qnorm := range []float64{0, 0.37 + rng.Float64()} {
			c.qnorm = qnorm
			for b := 0; b < blocks; b++ {
				edge := float64(qnorm*float64(c.bounds[4*b])) + scoreFloor
				c.thr = edge
				if got, _, _ := mustMatchTwin(t, c, what); got <= b {
					t.Fatalf("%s qnorm %v: thr = the rule's left side at block %d stopped at block %d", what, qnorm, b, got)
				}
				want := b
				if qnorm == 0 {
					want = 0 // every block's left side is 2⁻¹²⁶
				}
				c.thr = nextUp(edge)
				if got, _, _ := mustMatchTwin(t, c, what); got != want {
					t.Fatalf("%s qnorm %v: thr one above the rule's left side at block %d stopped at block %d, want %d", what, qnorm, b, got, want)
				}
			}
		}
	}
}

// TestBlocksI8ScoreRounding: the score is (xs·scale)·sum, the Go
// expression's order. xs·scale is exact in float64 (two 24-bit
// significands), so the order shows only when the sum has enough bits for
// scale·sum to round: at k = 2¹⁷ sums of ≈ 2³⁰ do, and a threshold on the
// exact score and either side of it tells the two orders apart.
func TestBlocksI8ScoreRounding(t *testing.T) {
	const k = 1 << 17
	rng := rand.New(rand.NewSource(37))
	c := kernelCall{xq: make([]int8, k), rows: make([]int8, 4*k), scales: make([]float32, 4), bounds: make([]float32, 4),
		qnorm: math.Inf(1)}
	for i := range c.xq {
		c.xq[i] = int8(100 + rng.Intn(28))
	}
	for i := range c.rows {
		c.rows[i] = int8(100 + rng.Intn(28))
	}
	for trial := 0; trial < 64; trial++ {
		c.xs = float64(math.Float32frombits(0x3f000000 | rng.Uint32()&0x7fffff))
		for i := range c.scales {
			c.scales[i] = math.Float32frombits(0x3c000000 | rng.Uint32()&0x7fffff)
		}
		for i := range c.scales {
			s := c.xs * float64(c.scales[i]) * float64(dotI8(c.xq, c.rows[i*k:]))
			for _, thr := range []float64{s, nextUp(s), nextDown(s)} {
				c.thr = thr
				mustMatchTwin(t, c, fmt.Sprintf("trial %d row %d", trial, i))
			}
		}
	}
}

// TestDot4I8Unaligned starts the query and the rows at every offset
// 0…15 from a cache-line boundary, so every 16-byte load alignment is read.
func TestDot4I8Unaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{15, 16, 17, 33, 64, 65} {
		for xo := 0; xo < 16; xo++ {
			xq, _ := asmtest.Unaligned[int8](k, xo, 0)
			randI8(rng, xq)
			for ro := 0; ro < 16; ro++ {
				rows, _ := asmtest.Unaligned[int8](4*k, ro, 0)
				mustMatchPortable(t, xq, randI8(rng, rows), k, fmt.Sprintf("k=%d offsets %d/%d", k, xo, ro))
			}
		}
	}
}

// TestDot4I8WrapsLikeGo: at k = 2¹⁷ an all-(−128) input sums to 2³¹, one
// past the int32 range; the kernel must wrap exactly where Go's += does.
func TestDot4I8WrapsLikeGo(t *testing.T) {
	const k = 1 << 17
	xq, rows := fill(make([]int8, k), -128), fill(make([]int8, 4*k), -128)
	fill(rows[k:2*k], 127)
	mustMatchPortable(t, xq, rows, k, "k=2^17 wrap")
	c := kernelCall{xq: xq, rows: rows, scales: make([]float32, 4), bounds: make([]float32, 4), thr: math.Inf(-1)}
	if _, _, sums := blocksI8(c.xq, c.rows, c.scales, c.bounds, c.xs, c.qnorm, c.thr); sums[0] != -1<<31 {
		t.Fatalf("row 0 = %d, want the wrapped %d", sums[0], -1<<31)
	}
}

// TestDot4I8ShortRowsPanic: the assembly does no bounds checks of its
// own, so the binding must refuse what the Go loop refuses.
func TestDot4I8ShortRowsPanic(t *testing.T) {
	for _, k := range []int{8, 16, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: rows one byte short did not panic", k)
				}
			}()
			blocksI8(make([]int8, k), make([]int8, 8*k-1), make([]float32, 8), make([]float32, 8), 1, math.Inf(1), math.Inf(1))
		}()
	}
}

// fuzzDotInput decodes fuzz bytes as [k−1, offset] then payload: the first
// k payload bytes are the query, the next 4k the rows (missing bytes are
// zero), both placed at `offset` into fresh allocations.
func fuzzDotInput(data []byte) (xq, rows []int8, k int, ok bool) {
	if len(data) < 2 {
		return nil, nil, 0, false
	}
	k = 1 + int(data[0])%160
	off := int(data[1]) % 16
	buf := make([]int8, 2*off+5*k)
	xq, rows = buf[off:][:k], buf[2*off+k:][:4*k]
	for i, b := range data[2:] {
		switch {
		case i < k:
			xq[i] = int8(b)
		case i < 5*k:
			rows[i-k] = int8(b)
		}
	}
	return xq, rows, k, true
}

// FuzzDot4I8MatchesPortable: CI runs the seeds below as ordinary tests
// and `make fuzz-smoke` explores from them.
func FuzzDot4I8MatchesPortable(f *testing.F) {
	seed := func(k, off int, v byte) {
		data := []byte{byte(k - 1), byte(off)}
		for i := 0; i < 5*k; i++ {
			data = append(data, v)
			if v != 0x80 && v != 0x7f {
				v = v*31 + 7
			}
		}
		f.Add(data)
	}
	for _, k := range []int{1, 15, 16, 17, 31, 32, 33, 64, 65, 127, 128, 160} {
		seed(k, k%16, 0x80)
		seed(k, (k+5)%16, 0x7f)
		seed(k, (k+9)%16, 3)
	}
	f.Add([]byte{63, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		xq, rows, k, ok := fuzzDotInput(data)
		if !ok {
			return
		}
		mustMatchPortable(t, xq, rows, k, fmt.Sprintf("k=%d", k))
	})
}
