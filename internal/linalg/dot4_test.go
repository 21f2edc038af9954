package linalg

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// sameBits is equality under math.Float64bits, except that two NaNs count
// as equal whatever their payload: which operand's payload an add of two
// NaNs keeps is the instruction's operand order, a register-allocation
// detail no caller can observe (no comparison, heap or encoder reads it).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// dotSpecials are the float32 values whose products leave the comfortable
// range: signed zeros, denormals, ±max (a product overflows float32 but not
// float64), and the non-finite ones.
var dotSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0x1p-130,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

func widen(x []float32) []float64 {
	xw := make([]float64, len(x))
	for j, v := range x {
		xw[j] = float64(v)
	}
	return xw
}

// TestDot4WideMatchesDot pins "exact": each of the four results, and the
// one-row tail, equals Dot on that row bit for bit — for widths on both
// sides of every unroll boundary, a stride wider than the query, and
// special values anywhere in the query or the rows.
func TestDot4WideMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 3, 4, 5, 32, 33, 64, 130} {
		for _, stride := range []int{k, k + 3} {
			for trial := 0; trial < 40; trial++ {
				x := make([]float32, k)
				rows := make([]float32, 4*stride)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				for i := range rows {
					rows[i] = float32(rng.NormFloat64())
				}
				// From the second trial on, plant specials: a few, then many,
				// so finite-but-extreme sums and NaN/Inf floods both occur.
				for s := 0; s < trial; s++ {
					v := dotSpecials[rng.Intn(len(dotSpecials))]
					if trial < 20 && (math.IsNaN(float64(v)) || math.IsInf(float64(v), 0)) {
						continue
					}
					if rng.Intn(3) == 0 {
						x[rng.Intn(k)] = v
					} else {
						rows[rng.Intn(len(rows))] = v
					}
				}
				xw := widen(x)
				got := [4]float64{}
				got[0], got[1], got[2], got[3] = Dot4Wide(xw, rows, stride)
				for r := 0; r < 4; r++ {
					row := rows[r*stride:][:k]
					want := Dot(x, row)
					if !sameBits(got[r], want) {
						t.Fatalf("k=%d stride=%d trial=%d row %d: Dot4Wide %x (%v), Dot %x (%v)",
							k, stride, trial, r, math.Float64bits(got[r]), got[r], math.Float64bits(want), want)
					}
					if one := Dot1Wide(xw, rows[r*stride:]); !sameBits(one, want) {
						t.Fatalf("k=%d stride=%d trial=%d row %d: Dot1Wide %x (%v), Dot %x (%v)",
							k, stride, trial, r, math.Float64bits(one), one, math.Float64bits(want), want)
					}
				}
			}
		}
	}
}

// TestDot4WideExtremes: the cases where float32 arithmetic would have
// given a different answer, spelled out.
func TestDot4WideExtremes(t *testing.T) {
	max, tiny, negZero := float32(math.MaxFloat32), float32(math.SmallestNonzeroFloat32), float32(math.Copysign(0, -1))
	x := []float32{max, tiny, negZero, 1}
	rows := []float32{
		max, tiny, 0, 0, // max² ≈ 1.16e77 overflows float32, not float64; tiny² ≈ 1.96e-90 is a float64 normal
		-max, 0, 0, 0,
		0, 0, 1, negZero, // (+0)+(−0·1)+(1·−0): stays +0, as in Dot
		float32(math.Inf(1)), 0, 0, float32(math.Inf(-1)), // Inf − Inf
	}
	s0, s1, s2, s3 := Dot4Wide(widen(x), rows, 4)
	for r, got := range []float64{s0, s1, s2, s3} {
		if want := Dot(x, rows[4*r:][:4]); !sameBits(got, want) {
			t.Errorf("row %d: Dot4Wide %v (%x), Dot %v (%x)", r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if math.IsInf(s0, 0) || s0 != float64(max)*float64(max)+float64(tiny)*float64(tiny) {
		t.Errorf("max·max + tiny·tiny = %v, want the finite float64 sum", s0)
	}
	if math.Signbit(s2) || s2 != 0 {
		t.Errorf("signed-zero row = %v (signbit %v), want +0", s2, math.Signbit(s2))
	}
	if !math.IsNaN(s3) {
		t.Errorf("Inf − Inf row = %v, want NaN", s3)
	}
}

var dotSink float64

// BenchmarkDot4Wide is the serving scan's kernel against what it replaced:
// four rows per op either way, at the two serving widths.
func BenchmarkDot4Wide(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{32, 64} {
		x := randomFactor(rng, 1, k)
		rows := randomFactor(rng, 4, k)
		xw := widen(x)
		b.Run("dot4wide/k"+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s0, s1, s2, s3 := Dot4Wide(xw, rows, k)
				dotSink += s0 + s1 + s2 + s3
			}
		})
		b.Run("4xdot/k"+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < 4; r++ {
					dotSink += Dot(x, rows[r*k:][:k])
				}
			}
		})
	}
}
