package linalg

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/asmtest"
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

// TestDot4WideMatchesDot pins "exact" for the serving scan's row kernels:
// each of Dot8Wide's eight results, Dot4Wide's over either half of the same
// rows, and the one-row tail equals Dot on that row bit for bit — for widths
// on both sides of every unroll boundary (odd k is Dot8Wide's portable
// body), a stride wider than the query, and special values anywhere in the
// query or the rows. The cancellation plant makes a reordered chain show:
// with x_j = x_j+1 = 1, a row's components at j, j+1 equal to 2^53 and 1, and
// a running sum s ≡ 1 (mod 4) before them, Dot's order rounds twice down to
// 2^53 + s − 1 where adding j+1 first gives 2^53 + s + 1; and s differs from
// row to row, so two swapped lanes land in the wrong results.
func TestDot4WideMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 2, 3, 4, 5, 31, 32, 33, 64, 130} {
		for _, stride := range []int{k, k + 3} {
			for trial := 0; trial < 40; trial++ {
				x := make([]float32, k)
				rows := make([]float32, 8*stride)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				for i := range rows {
					rows[i] = float32(rng.NormFloat64())
				}
				if trial%4 == 1 && k >= 4 {
					j := 2 + 2*rng.Intn((k-2)/2)
					x[0], x[j], x[j+1] = 1, 1, 1
					for r := 0; r < 8; r++ {
						row := rows[r*stride:][:k]
						for c := 1; c < j; c++ {
							row[c] = 0
						}
						row[0], row[j], row[j+1] = float32(1+4*r), 0x1p53, 1
					}
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
				var got8, got4 [8]float64
				Dot8Wide(xw, rows, stride, &got8)
				got4[0], got4[1], got4[2], got4[3] = Dot4Wide(xw, rows, stride)
				got4[4], got4[5], got4[6], got4[7] = Dot4Wide(xw, rows[4*stride:], stride)
				for r := range got8 {
					want := Dot(x, rows[r*stride:][:k])
					for _, got := range []struct {
						name string
						v    float64
					}{{"Dot8Wide", got8[r]}, {"Dot4Wide", got4[r]}, {"Dot1Wide", Dot1Wide(xw, rows[r*stride:])}} {
						if !sameBits(got.v, want) {
							t.Fatalf("k=%d stride=%d trial=%d row %d: %s %x (%v), Dot %x (%v)", k, stride, trial, r,
								got.name, math.Float64bits(got.v), got.v, math.Float64bits(want), want)
						}
					}
				}
			}
		}
	}
}

// TestDot8WideUnaligned starts the rows, the query and out at each element
// offset inside a 16-byte window and checks that nothing outside out's
// eight elements was written.
func TestDot8WideUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const sentinel = 12345
	for _, k := range []int{2, 8, 32} {
		stride := k + 1
		ref, x := randomFactor(rng, 8, stride), randomFactor(rng, 1, k)
		for off := 0; off < 4*2*2; off++ {
			rOff, xOff, oOff := off&3, off>>2&1, off>>3&1
			rows, _ := asmtest.Unaligned[float32](len(ref), rOff, 0)
			xw, _ := asmtest.Unaligned[float64](k, xOff, 0)
			out, intact := asmtest.Unaligned[float64](8, oOff, sentinel)
			copy(rows, ref)
			copy(xw, widen(x))
			Dot8Wide(xw, rows, stride, (*[8]float64)(out))
			for r := range 8 {
				if want := Dot(x, rows[r*stride:][:k]); !sameBits(out[r], want) {
					t.Fatalf("k=%d offsets rows%d x%d out%d row %d: %v, Dot %v", k, rOff, xOff, oOff, r, out[r], want)
				}
			}
			if !intact() {
				t.Fatalf("k=%d out offset %d: an element outside out was written", k, oOff)
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

// BenchmarkRowScan scores a whole row range the way metrics.ScanTopK does,
// eight rows per call against four, and the way its warm scan does:
// "screened" walks the range's int16 copy (12 bits, one scale, zero-padded
// to a multiple of 8 components) with Screen8 against a cut that 1 % of the
// rows reach, and gives those Dot1Wide. Shapes: one fleet2-mixed-k32
// shard's slice (12 400 × 32, 1.6 MB), the same at k = 64, and 248 rows
// that stay in L1. One op is the range.
func BenchmarkRowScan(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{248, 32}, {12400, 32}, {12400, 64}} {
		rows, k := shape[0], shape[1]
		x := randomFactor(rng, 1, k)
		xw := widen(x)
		y := randomFactor(rng, rows, k)
		name := strconv.Itoa(rows) + "x" + strconv.Itoa(k)
		k8 := k // a multiple of 8: the copy's rows need no padding
		xq, q := quantize12(x), quantize12(y)
		sums := make([]int32, rows)
		for r := range sums {
			sums[r] = screenDot(xq, q[r*k8:])
		}
		slices.Sort(sums)
		cut := sums[rows-rows/100-1]
		b.Run("screened/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r += 8 {
					blk, mask := Screen8(xq, q[r*k8:rows*k8], cut)
					r += 8 * blk
					for ; mask != 0; mask &= mask - 1 {
						dotSink += Dot1Wide(xw, y[(r+bits.TrailingZeros(uint(mask)))*k:])
					}
				}
			}
		})
		b.Run("dot8wide/"+name, func(b *testing.B) {
			var s [8]float64
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r += 8 {
					Dot8Wide(xw, y[r*k:], k, &s)
					dotSink += s[0]
				}
			}
		})
		b.Run("dot4wide/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r += 4 {
					s0, _, _, _ := Dot4Wide(xw, y[r*k:], k)
					dotSink += s0
				}
			}
		})
	}
}

// quantize12 rounds v to 12-bit levels at one scale, max|v|/2047: the
// serving screen's copy of rows whose width is a multiple of 8, so none is
// padded.
func quantize12(v []float32) []int16 {
	var top float64
	for _, f := range v {
		top = max(top, math.Abs(float64(f)))
	}
	out := make([]int16, len(v))
	for i, f := range v {
		out[i] = int16(math.Round(float64(f) / (top / 2047)))
	}
	return out
}
