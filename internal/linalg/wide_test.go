package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// The contract of gemvWide and rank1Wide is equality of bits with the
// portable bodies, and of those with loops written against DotWide (the code
// CGSystem.apply ran before it had kernels): no tolerance. Two NaNs count as equal whatever their payload, as in
// sameBits — CGSolve turns any NaN into ErrCGBreakdown before a caller
// could look at one.

func sameBits32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// wideScratch is the widened direction where Apply would put it.
func (s *CGSystem) wideScratch(p []float32) []float64 {
	w := make([]float64, s.K)
	if len(s.Wide) >= s.K {
		w = s.Wide[:s.K]
	}
	for i, v := range p[:s.K] {
		w[i] = float64(v)
	}
	return w
}

// applyOracle is the GWide matvec written with DotWide alone.
func applyOracle(s *CGSystem, p, out []float32) {
	k := s.K
	w := s.wideScratch(p)
	lam := float64(s.Lam)
	for i := range out[:k] {
		out[i] = float32(lam*w[i] + DotWide(s.GWide[i*k:i*k+k], w))
	}
	for z, c := range s.Cols {
		f := s.Src[int(c)*k : int(c)*k+k]
		wd := float32(s.weight(z) * DotWide(f, w))
		for i, fi := range f {
			out[i] += wd * fi
		}
	}
}

// applyPortable is the GWide matvec a build without the assembly runs.
func applyPortable(s *CGSystem, p, out []float32) {
	k := s.K
	w := s.wideScratch(p)
	gemvWidePortable(s.GWide, w, float64(s.Lam), out[:k])
	for z, c := range s.Cols {
		rank1WidePortable(s.Src[int(c)*k:int(c)*k+k], w, s.weight(z), out[:k])
	}
}

// mustMatchApply runs s.Apply(p, out) — this build's kernels — and holds it
// to the portable bodies and those to the DotWide loop.
func mustMatchApply(t testing.TB, s *CGSystem, p, out []float32, what string) {
	t.Helper()
	k := s.K
	port, want := make([]float32, k), make([]float32, k)
	applyOracle(s, p, want)
	applyPortable(s, p, port)
	s.Apply(p, out)
	for i := range want {
		if !sameBits32(port[i], want[i]) {
			t.Fatalf("%s: component %d: portable %x (%v), DotWide loop %x (%v)", what, i,
				math.Float32bits(port[i]), port[i], math.Float32bits(want[i]), want[i])
		}
		if !sameBits32(out[i], want[i]) {
			t.Fatalf("%s: component %d: %s %x (%v), portable %x (%v)", what, i, KernelName(),
				math.Float32bits(out[i]), out[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// wideFixture is a GWide system over omega rank-1 terms drawn (with
// repeats) from a handful of factor rows, and a direction.
func wideFixture(rng *rand.Rand, k, omega int, withVals bool) (*CGSystem, []float32) {
	n := min(omega, 40) + 3
	s := &CGSystem{
		GWide: make([]float64, k*k),
		K:     k,
		Src:   randomFactor(rng, n, k),
		Cols:  make([]int32, omega),
		Alpha: 5,
		Lam:   0.1,
		Wide:  make([]float64, k),
	}
	for i := range s.GWide {
		s.GWide[i] = float64(float32(rng.NormFloat64()))
	}
	for z := range s.Cols {
		s.Cols[z] = int32(rng.Intn(n))
	}
	if withVals {
		s.Vals = make([]float32, omega)
		for z := range s.Vals {
			s.Vals[z] = 0.5 + rng.Float32()*4.5
		}
	}
	return s, randomFactor(rng, 1, k)
}

// plantSpecials overwrites a few entries of every operand with dotSpecials
// values, the finite ones only or all of them.
func plantSpecials(rng *rand.Rand, s *CGSystem, p []float32, finite bool) {
	for n := 0; n < 3; n++ {
		s.GWide[rng.Intn(len(s.GWide))] = float64(pickSpecial(rng, finite))
		s.Src[rng.Intn(len(s.Src))] = pickSpecial(rng, finite)
		p[rng.Intn(len(p))] = pickSpecial(rng, finite)
		if len(s.Vals) > 0 {
			s.Vals[rng.Intn(len(s.Vals))] = pickSpecial(rng, finite)
		}
	}
}

// plantCancellations makes the sums order-revealing. Well-scaled inputs
// cannot tell (s0+s1)+(s2+s3) from any other grouping once the result is
// rounded to float32: regrouping moves the last bit or two of a float64. So
// the direction gets 2^20 at k/8 pairs of positions and every Gram and factor
// row ±m·2^20 at each pair: the two products, ±m·2^40, cancel exactly, but
// between them a partial sum sits at 2^40 and absorbs what is added to it
// down to 2^-12 — which small terms that costs depends on which chain each
// element went to and on the order the chains were combined, and shows in
// the float32 result.
func plantCancellations(rng *rand.Rand, s *CGSystem, p []float32) {
	k := s.K
	perm := rng.Perm(k)
	for n := 0; n < max(1, k/8) && 2*n+1 < k; n++ {
		j0, j1 := perm[2*n], perm[2*n+1]
		p[j0], p[j1] = 1<<20, 1<<20
		for r := 0; r < k; r++ {
			m := float64(int(1+rng.Intn(7)) << 20)
			s.GWide[r*k+j0], s.GWide[r*k+j1] = m, -m
		}
		for r := 0; r < len(s.Src)/k; r++ {
			m := float32(int(1+rng.Intn(7)) << 20)
			s.Src[r*k+j0], s.Src[r*k+j1] = m, -m
		}
	}
}

// wideWidths is every k on both sides of the kernels' regimes: not a
// multiple of four (portable for the whole call), one pass of four rows,
// many, and a width past cgStackK.
func wideWidths() []int {
	ks := []int{256}
	for k := 1; k <= 130; k++ {
		ks = append(ks, k)
	}
	return ks
}

func TestWideKernelsMatchPortable(t *testing.T) { wideKernelsMatchPortable(t) }

// wideKernelsMatchPortable holds Apply to the portable bodies and the
// DotWide loop at every width of wideWidths, over rank-1 counts from none
// to a thousand, on random operands, then with cancellations planted, then
// with specials.
func wideKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range wideWidths() {
		for _, omega := range []int{0, 1, 7, 20, 1000} {
			for _, withVals := range []bool{false, true} {
				s, p := wideFixture(rng, k, omega, withVals)
				out := make([]float32, k)
				what := fmt.Sprintf("k=%d omega=%d vals=%v", k, omega, withVals)
				mustMatchApply(t, s, p, out, what+" random")
				plantCancellations(rng, s, p)
				mustMatchApply(t, s, p, out, what+" cancellations")
				plantSpecials(rng, s, p, true)
				mustMatchApply(t, s, p, out, what+" finite specials")
				plantSpecials(rng, s, p, false)
				mustMatchApply(t, s, p, out, what+" all specials")
			}
		}
	}
}

// TestWideKernelsUnaligned starts every operand the kernels load or store
// at each element offset inside a 16-byte window — so at each 8-byte
// (float64) and 4-byte (float32) alignment — and checks that nothing
// outside the k elements of out was written.
func TestWideKernelsUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const sentinel = 12345
	for _, k := range []int{4, 8, 20, 64} {
		ref, p := wideFixture(rng, k, 7, true)
		for off := 0; off < 2*2*4*4; off++ {
			gOff, wOff, sOff, oOff := off&1, off>>1&1, off>>2&3, off>>4&3
			s := *ref
			s.GWide, _ = asmtest.Unaligned[float64](k*k, gOff, 0)
			s.Wide, _ = asmtest.Unaligned[float64](k, wOff, 0)
			s.Src, _ = asmtest.Unaligned[float32](len(ref.Src), sOff, 0)
			copy(s.GWide, ref.GWide)
			copy(s.Src, ref.Src)
			out, intact := asmtest.Unaligned[float32](k, oOff, sentinel)
			mustMatchApply(t, &s, p, out, fmt.Sprintf("k=%d offsets g%d w%d f%d out%d", k, gOff, wOff, sOff, oOff))
			if !intact() {
				t.Fatalf("k=%d out offset %d: an element outside out was written", k, oOff)
			}
		}
	}
}

// fuzzApplyInput decodes fuzz bytes as [k−1, omega, flags] then a payload of
// little-endian float32 bit patterns, read cyclically so a short input still
// fills every operand: the direction, λ, α, the weights, the factor rows and
// the Gram (widened, as SharedGram.Wide is). flags bit 0 sets Vals; bits 1–2
// and 3 are the float32 and float64 operands' element offsets from their
// allocations.
func fuzzApplyInput(data []byte) (s *CGSystem, p, out []float32, ok bool) {
	if len(data) < 3+4 {
		return nil, nil, nil, false
	}
	k, omega, flags := 1+int(data[0])%160, int(data[1])%24, data[2]
	payload := data[3 : 3+(len(data)-3)&^3]
	off32, off64 := int(flags>>1&3), int(flags>>3&1)
	at := 0
	next := func() float32 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(payload[at:]))
		at = (at + 4) % len(payload)
		return v
	}
	fill32 := func(n int) []float32 {
		b := make([]float32, off32+n)[off32:]
		for i := range b {
			b[i] = next()
		}
		return b
	}
	n := max(omega, 1)
	p = fill32(k)
	s = &CGSystem{K: k, Lam: next(), Alpha: next(), Cols: make([]int32, omega)}
	if flags&1 != 0 {
		s.Vals = fill32(omega)
	}
	s.Src = fill32(n * k)
	s.GWide = make([]float64, off64+k*k)[off64:]
	for i := range s.GWide {
		s.GWide[i] = float64(next())
	}
	s.Wide = make([]float64, off64+k)[off64:]
	for z := range s.Cols {
		s.Cols[z] = int32(z % n)
	}
	return s, p, make([]float32, off32+k)[off32:], true
}

// FuzzApplyMatchesPortable: no CI lane fuzzes, so the seeds below are what
// runs, as ordinary tests; `go test -fuzz` explores from them.
func FuzzApplyMatchesPortable(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, k := range []int{1, 3, 4, 8, 20, 63, 64, 128, 160} {
		for i, omega := range []int{0, 1, 7, 20} {
			data := []byte{byte(k - 1), byte(omega), byte(k + 5*i)}
			for n := 0; n < 97; n++ { // coprime to every operand length: the cycle never lines up
				v := float32(rng.NormFloat64())
				if i == 3 && n%11 == 0 {
					v = dotSpecials[rng.Intn(len(dotSpecials))]
				}
				data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, p, out, ok := fuzzApplyInput(data)
		if !ok {
			return
		}
		mustMatchApply(t, s, p, out, fmt.Sprintf("k=%d omega=%d vals=%v", s.K, len(s.Cols), s.Vals != nil))
	})
}
