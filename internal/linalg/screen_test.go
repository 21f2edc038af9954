package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// screenSpecials are the float32 values at the screen's edges: signed
// zeros, subnormals (whose products underflow to 0 or a subnormal), and
// magnitudes whose products reach 2^100, where the serving scan's gate
// switches the screen off (metrics.PrepareScan).
var screenSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0x1p-130, -0x1p-140, 0x1p-75,
	0x1p50, -0x1p50, 0x1.fffffep49,
}

// screenFixture returns a query and eight rows for trial of width k: normal
// values, then on every fourth trial order-revealing plants, and from the
// second on a growing number of screenSpecials. A plant (plantScreen) makes
// the reduction order show.
func screenFixture(rng *rand.Rand, k, stride, trial int) (x, rows []float32) {
	x = make([]float32, k)
	rows = make([]float32, 8*stride)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for i := range rows {
		rows[i] = float32(rng.NormFloat64())
	}
	if trial%4 == 1 && k >= 12 {
		plantScreen(x, rows, stride, 4*rng.Intn(k/4-2))
	}
	for s := 0; s < trial; s++ {
		v := screenSpecials[rng.Intn(len(screenSpecials))]
		if rng.Intn(3) == 0 {
			x[rng.Intn(k)] = v
		} else {
			rows[rng.Intn(len(rows))] = v
		}
	}
	return x, rows
}

// plantScreen zeroes x but for components q..q+4 and q+8, which it sets to
// 1, and gives row r the lanes 2^24, 1+r, −2^24, 1 at q..q+3 and a 1 in lane
// 0 at q+4 and q+8. In the kernel's order lane 0 is (2^24 ⊕ 1) ⊕ 1 = 2^24
// and the row is (2^24 ⊕ −2^24) ⊕ (1+r ⊕ 1) = 2+r. Adding lane 0 out of j
// order gives 2^24+2 and a row of 4+r; pairing (l0 + l1) + (l2 + l3) gives
// 1 for row 0; and every row's value differs, so a swapped row or a sum of
// lanes of different rows lands on the wrong bit.
func plantScreen(x, rows []float32, stride, q int) {
	for j := range x {
		x[j] = 0
	}
	for _, j := range []int{q, q + 1, q + 2, q + 3, q + 4, q + 8} {
		x[j] = 1
	}
	for r := 0; r < 8; r++ {
		row := rows[r*stride:][:len(x)]
		row[q], row[q+1], row[q+2], row[q+3], row[q+4], row[q+8] = 0x1p24, float32(1+r), -0x1p24, 1, 1, 1
	}
}

// mustScreenLikePortable checks Screen8 against the portable arithmetic.
// The kernel returns only a mask, so each row's value is pinned by two
// probes: at cut = v its bit must be set and at the next float32 above v it
// must be clear, which leaves only v itself (or −v when v is a zero: the
// compare cannot see a zero's sign, and neither can the scan). The fixed
// cuts −Inf, +Inf, NaN and one between the rows' values compare the whole
// mask.
func mustScreenLikePortable(t *testing.T, x, rows []float32, stride int, what string) {
	t.Helper()
	want := screen8Values(x, rows, stride)
	sorted := want
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	between := sorted[3]/2 + sorted[4]/2
	for _, cut := range []float32{float32(math.Inf(-1)), float32(math.Inf(1)), float32(math.NaN()), between} {
		if got, w := Screen8(x, rows, stride, cut), screen8Portable(x, rows, stride, cut); got != w {
			t.Fatalf("%s cut=%v: mask %08b, portable %08b (values %v)", what, cut, got, w, want)
		}
	}
	for r, v := range want {
		if got := Screen8(x, rows, stride, v); got&(1<<r) == 0 {
			t.Fatalf("%s row %d: bit clear at cut = its value %v (%#x)", what, r, v, math.Float32bits(v))
		}
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 1) {
			continue
		}
		up := math.Nextafter32(v, float32(math.Inf(1)))
		if got := Screen8(x, rows, stride, up); got&(1<<r) != 0 {
			t.Fatalf("%s row %d: bit set at cut %v, one ulp above its value %v (%#x)", what, r, up, v, math.Float32bits(v))
		}
	}
}

// TestScreen8MatchesPortable: the SSE2 screen computes the portable
// screen's value for every row, bit for bit, and compares it the same way,
// for widths on both sides of the kernel's multiple-of-4 rule (5 and 33 run
// the portable body on every build), a stride wider than the query, and
// subnormals, signed zeros and products up to 2^100.
func TestScreen8MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, k := range []int{4, 5, 8, 12, 32, 33, 64, 128} {
		for _, stride := range []int{k, k + 3} {
			for trial := 0; trial < 40; trial++ {
				x, rows := screenFixture(rng, k, stride, trial)
				mustScreenLikePortable(t, x, rows, stride, fmt.Sprintf("k=%d stride=%d trial=%d", k, stride, trial))
			}
		}
	}
}

// TestScreen8Order pins the reduction order itself against a hand value:
// plantScreen's rows are worth 2+r.
func TestScreen8Order(t *testing.T) {
	const k = 16
	x, rows := make([]float32, k), make([]float32, 8*k)
	plantScreen(x, rows, k, 4)
	for r := 0; r < 8; r++ {
		v := float32(2 + r)
		if m := Screen8(x, rows, k, v); m&(1<<r) == 0 {
			t.Errorf("row %d: value below %v", r, v)
		}
		if m := Screen8(x, rows, k, v+0.5); m&(1<<r) != 0 {
			t.Errorf("row %d: value at or above %v", r, v+0.5)
		}
	}
}

// TestScreen8Unaligned starts the rows and the query at each float32 offset
// inside a 16-byte window.
func TestScreen8Unaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, k := range []int{4, 8, 32} {
		stride := k + 1
		ref, xr := randomFactor(rng, 8, stride), randomFactor(rng, 1, k)
		for off := 0; off < 4*4; off++ {
			rOff, xOff := off&3, off>>2
			rows, _ := asmtest.Unaligned[float32](len(ref), rOff, 0)
			x, _ := asmtest.Unaligned[float32](k, xOff, 0)
			copy(rows, ref)
			copy(x, xr)
			mustScreenLikePortable(t, x, rows, stride, fmt.Sprintf("k=%d offsets rows%d x%d", k, rOff, xOff))
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
