package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/asmtest"
)

// The contract of fusedBlock4 and cholSweep — the explicit row update's two
// vector kernels — is equality of bits with the portable bodies, and of
// GramRHSFusedUnrolled and CholeskyPacked with the loops they were before
// they had kernels: no tolerance, NaNs equal whatever their payload
// (sameBits32). Models and checkpoints are byte-identical across builds
// only because of it.

// fusedOracle is GramRHSFusedUnrolled spelled element by element: every
// packed slot and every svec component of a block written as the one
// expression it is, no strips.
func fusedOracle(y []float32, k int, cols []int32, vals []float32, packed, svec []float32) {
	clear(packed[:PackedLen(k)])
	clear(svec[:k])
	row := func(z int) []float32 { return y[int(cols[z])*k:][:k] }
	z := 0
	for ; z+4 <= len(cols); z += 4 {
		a, b, c, d := row(z), row(z+1), row(z+2), row(z+3)
		idx := 0
		for i := 0; i < k; i++ {
			svec[i] += vals[z]*a[i] + vals[z+1]*b[i] + vals[z+2]*c[i] + vals[z+3]*d[i]
			for j := i; j < k; j++ {
				packed[idx] += a[i]*a[j] + b[i]*b[j] + c[i]*c[j] + d[i]*d[j]
				idx++
			}
		}
	}
	for ; z+2 <= len(cols); z += 2 {
		a, b := row(z), row(z+1)
		idx := 0
		for i := 0; i < k; i++ {
			svec[i] += vals[z]*a[i] + vals[z+1]*b[i]
			for j := i; j < k; j++ {
				packed[idx] += a[i]*a[j] + b[i]*b[j]
				idx++
			}
		}
	}
	for ; z < len(cols); z++ {
		a := row(z)
		idx := 0
		for i := 0; i < k; i++ {
			svec[i] += vals[z] * a[i]
			for j := i; j < k; j++ {
				packed[idx] += a[i] * a[j]
				idx++
			}
		}
	}
}

// choleskyPackedColumns is CholeskyPacked as it was before the row
// interchange: dense Cholesky's loop nest on packed storage, one element
// finished at a time, U[q][j] and U[q][i] walked down their columns.
func choleskyPackedColumns(p []float32, k int) error {
	for j := 0; j < k; j++ {
		oj := PackedOff(k, j)
		d := float64(p[oj])
		off := j
		for q := 0; q < j; q++ {
			v := float64(p[off])
			d -= v * v
			off += k - q - 1
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, d)
		}
		ujj := math.Sqrt(d)
		p[oj] = float32(ujj)
		for i := j + 1; i < k; i++ {
			s := float64(p[oj+i-j])
			offJ, offI := j, i
			for q := 0; q < j; q++ {
				s -= float64(p[offJ]) * float64(p[offI])
				step := k - q - 1
				offJ += step
				offI += step
			}
			p[oj+i-j] = float32(s / ujj)
		}
	}
	return nil
}

// fusedCase is one row's gathered operands.
type fusedCase struct {
	y    []float32
	k    int
	cols []int32
	vals []float32
}

func (c *fusedCase) rows() int { return len(c.y) / c.k }

// fusedFixture draws omega nonzeros (with repeats) from a handful of factor
// rows; whenever there is room the first block is one row four times over
// and the factor's last row is among the ids.
func fusedFixture(rng *rand.Rand, k, omega int) *fusedCase {
	n := min(omega, 40) + 4
	c := &fusedCase{y: randomFactor(rng, n, k), k: k, cols: make([]int32, omega), vals: make([]float32, omega)}
	for z := range c.cols {
		c.cols[z] = int32(rng.Intn(n))
		c.vals[z] = 0.5 + rng.Float32()*4.5
	}
	if omega >= 4 {
		c.cols[1], c.cols[2], c.cols[3] = c.cols[0], c.cols[0], c.cols[0]
	}
	if omega > 0 {
		c.cols[rng.Intn(omega)] = int32(n - 1)
	}
	return c
}

// plantCancellations makes a block's sums order-revealing. On well-scaled
// data ((t1+t2)+t3)+t4 and any other grouping of four float32 products
// nearly always round to the same float32. So nonzero z gathers a factor row
// of its own residue mod 4, and at k/8 pairs of positions (i0, j0) rows ≡ 0
// hold (2^12, 2^12) and rows ≡ 2 hold (2^12, −2^12): in packed slot (i0, j0)
// a block's first and third products are ±2^24 and cancel exactly, but
// between them the partial sum sits at 2^24 and has swallowed the second
// product's fraction — which a sum taken in another order, or straight into
// the accumulator, keeps. Ratings ±2^12 on the same two nonzeros do it to
// svec[i0].
func (c *fusedCase) plantCancellations(rng *rand.Rand) {
	k, n := c.k, c.rows()
	for z := range c.cols {
		r := rng.Intn(n/4)*4 + z%4
		c.cols[z] = int32(r)
		switch z % 4 {
		case 0:
			c.vals[z] = 1 << 12
		case 2:
			c.vals[z] = -(1 << 12)
		}
	}
	perm := rng.Perm(k)
	for p := 0; p < max(1, k/8) && 2*p+1 < k; p++ {
		i0, j0 := perm[2*p], perm[2*p+1]
		for r := 0; r < n; r++ {
			switch r % 4 {
			case 0:
				c.y[r*k+i0], c.y[r*k+j0] = 1<<12, 1<<12
			case 2:
				c.y[r*k+i0], c.y[r*k+j0] = 1<<12, -(1 << 12)
			}
		}
	}
}

func pickSpecial(rng *rand.Rand, finite bool) float32 {
	for {
		v := dotSpecials[rng.Intn(len(dotSpecials))]
		if !finite || !(math.IsNaN(float64(v)) || math.IsInf(float64(v), 0)) {
			return v
		}
	}
}

// plantSpecials overwrites a few factor entries and ratings with
// dotSpecials values, the finite ones only or all of them.
func (c *fusedCase) plantSpecials(rng *rand.Rand, finite bool) {
	for n := 0; n < 3; n++ {
		c.y[rng.Intn(len(c.y))] = pickSpecial(rng, finite)
		if len(c.vals) > 0 {
			c.vals[rng.Intn(len(c.vals))] = pickSpecial(rng, finite)
		}
	}
}

func mustSameBits32(t testing.TB, got, want []float32, what, gotName, wantName string) {
	t.Helper()
	for i := range want {
		if !sameBits32(got[i], want[i]) {
			t.Fatalf("%s: element %d: %s %x (%v), %s %x (%v)", what, i,
				gotName, math.Float32bits(got[i]), got[i], wantName, math.Float32bits(want[i]), want[i])
		}
	}
}

// mustMatchFused runs GramRHSFusedUnrolled — this build's kernel — into
// packed and svec and holds it to fusedOracle; block by block, from the same
// running sums, it holds this build's fusedBlock4 to the portable body.
func mustMatchFused(t testing.TB, c *fusedCase, packed, svec []float32, what string) {
	t.Helper()
	k := c.k
	wantP, wantS := make([]float32, PackedLen(k)), make([]float32, k)
	fusedOracle(c.y, k, c.cols, c.vals, wantP, wantS)
	for i := range packed {
		packed[i] = float32(math.NaN()) // must be overwritten
	}
	GramRHSFusedUnrolled(c.y, k, c.cols, c.vals, packed, svec)
	mustSameBits32(t, packed, wantP, what+": packed", KernelName(), "element-wise loop")
	mustSameBits32(t, svec, wantS, what+": svec", KernelName(), "element-wise loop")

	portP, portS := make([]float32, PackedLen(k)), make([]float32, k)
	clear(packed)
	clear(svec)
	for z := 0; z+4 <= len(c.cols); z += 4 {
		var r [4][]float32
		for n := range r {
			r[n] = c.y[int(c.cols[z+n])*k:][:k]
		}
		fusedBlock4Portable(r[0], r[1], r[2], r[3], c.vals[z:z+4], portP, portS)
		fusedBlock4(r[0], r[1], r[2], r[3], c.vals[z:z+4], packed, svec)
		mustSameBits32(t, packed, portP, fmt.Sprintf("%s: block %d packed", what, z/4), KernelName(), "portable")
		mustSameBits32(t, svec, portS, fmt.Sprintf("%s: block %d svec", what, z/4), KernelName(), "portable")
	}
}

// rowKernelWidths is every k from one to past cholStackK — every residue of
// the strip lengths mod 8 and mod 4 at every row — and one width well past
// it.
func rowKernelWidths() []int {
	ks := []int{160}
	for k := 1; k <= 130; k++ {
		ks = append(ks, k)
	}
	return ks
}

var rowKernelOmegas = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 73, 1000}

func TestFusedKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, k := range rowKernelWidths() {
		packed, svec := make([]float32, PackedLen(k)), make([]float32, k)
		for _, omega := range rowKernelOmegas {
			if omega == 1000 && k%8 != 0 && testing.Short() {
				continue
			}
			c := fusedFixture(rng, k, omega)
			what := fmt.Sprintf("k=%d omega=%d", k, omega)
			mustMatchFused(t, c, packed, svec, what+" random")
			c.plantSpecials(rng, true)
			mustMatchFused(t, c, packed, svec, what+" finite specials")
			c.plantSpecials(rng, false)
			mustMatchFused(t, c, packed, svec, what+" all specials")
			c = fusedFixture(rng, k, omega)
			c.plantCancellations(rng)
			mustMatchFused(t, c, packed, svec, what+" cancellations")
		}
	}
}

// TestPlantedCancellationsRevealGrouping: the planted inputs do what they
// are for — the same block summed term by term into the accumulator, a
// grouping any rewrite of the strip loop could slip into, differs from the
// kernel's after float32 rounding, in packed and in svec.
func TestPlantedCancellationsRevealGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, k := range []int{2, 8, 32} {
		c := fusedFixture(rng, k, 8)
		c.plantCancellations(rng)
		packed, svec := make([]float32, PackedLen(k)), make([]float32, k)
		GramRHSFusedUnrolled(c.y, k, c.cols, c.vals, packed, svec)
		p2, s2 := make([]float32, PackedLen(k)), make([]float32, k)
		for z := range c.cols { // one term at a time
			a := c.y[int(c.cols[z])*k:][:k]
			idx := 0
			for i := 0; i < k; i++ {
				s2[i] += c.vals[z] * a[i]
				for j := i; j < k; j++ {
					p2[idx] += a[i] * a[j]
					idx++
				}
			}
		}
		differs := func(a, b []float32) bool {
			for i := range a {
				if !sameBits32(a[i], b[i]) {
					return true
				}
			}
			return false
		}
		if !differs(packed, p2) || !differs(svec, s2) {
			t.Fatalf("k=%d: a term-by-term sum matches the blocked one bit for bit: the planted inputs reveal nothing", k)
		}
	}
}

// TestFusedKernelUnaligned starts the factor, the ratings, packed and svec
// at every 4-byte offset inside a 16-byte window and checks that nothing
// outside packed or svec was written.
func TestFusedKernelUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const sentinel = 12345
	for _, k := range []int{1, 3, 4, 7, 8, 13, 32, 33} {
		ref := fusedFixture(rng, k, 9)
		for off := 0; off < 4*4*4*4; off++ {
			yOff, vOff, pOff, sOff := off&3, off>>2&3, off>>4&3, off>>6&3
			c := *ref
			c.y, _ = asmtest.Unaligned[float32](len(ref.y), yOff, 0)
			c.vals, _ = asmtest.Unaligned[float32](len(ref.vals), vOff, 0)
			copy(c.y, ref.y)
			copy(c.vals, ref.vals)
			packed, packedIntact := asmtest.Unaligned[float32](PackedLen(k), pOff, sentinel)
			svec, svecIntact := asmtest.Unaligned[float32](k, sOff, sentinel)
			mustMatchFused(t, &c, packed, svec, fmt.Sprintf("k=%d offsets y%d v%d packed%d svec%d", k, yOff, vOff, pOff, sOff))
			if !packedIntact() || !svecIntact() {
				t.Fatalf("k=%d offsets packed%d svec%d: an element outside packed or svec was written", k, pOff, sOff)
			}
		}
	}
}

// sweepOracle is pivot row j's strip by the column walk: each element its
// own loop over q, as choleskyPackedColumns computes it.
func sweepOracle(p []float32, k, j int, acc []float64) {
	for i := range acc {
		s := acc[i]
		offJ, offI := j, j+i
		for q := 0; q < j; q++ {
			s -= float64(p[offJ]) * float64(p[offI])
			step := k - q - 1
			offJ += step
			offI += step
		}
		acc[i] = s
	}
}

// mustMatchSweep holds this build's cholSweep to the portable body and that
// to the column walk, for every pivot row of p read as a finished factor
// (the sweep only reads it, so any contents will do). acc is the strip the
// kernel gets, at least k elements.
func mustMatchSweep(t testing.TB, p []float32, k int, acc []float64, what string) {
	t.Helper()
	port, want := make([]float64, k), make([]float64, k)
	for j := 0; j < k; j++ {
		n := k - j
		for i, v := range p[PackedOff(k, j):][:n] {
			acc[i], port[i], want[i] = float64(v), float64(v), float64(v)
		}
		sweepOracle(p, k, j, want[:n])
		cholSweepPortable(p, k, j, port[:n])
		cholSweep(p, k, j, acc[:n])
		for i := 0; i < n; i++ {
			if !sameBits(port[i], want[i]) {
				t.Fatalf("%s: pivot row %d element %d: portable %x, column walk %x", what, j, i, math.Float64bits(port[i]), math.Float64bits(want[i]))
			}
			if !sameBits(acc[i], want[i]) {
				t.Fatalf("%s: pivot row %d element %d: %s %x, portable %x", what, j, i, KernelName(), math.Float64bits(acc[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// mustMatchCholesky factors p in place — CholeskyPacked, or choleskyPacked
// on the strip acc when the test supplies one — and holds the outcome to
// choleskyPackedColumns on the same input: the same error text, and the same
// triangle — the factor, or on a rejected pivot the rows finished before it
// over the untouched rest.
func mustMatchCholesky(t testing.TB, p []float32, k int, acc []float64, what string) {
	t.Helper()
	want := append([]float32(nil), p...)
	wantErr := choleskyPackedColumns(want, k)
	var err error
	if acc == nil {
		err = CholeskyPacked(p, k)
	} else {
		err = choleskyPacked(p, k, acc)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %q, column walk %q", what, fmt.Sprint(err), fmt.Sprint(wantErr))
	}
	mustSameBits32(t, p, want, what+": factor", KernelName()+" rows", "column walk")
}

// spdPacked is a fused Gram of omega ≥ k terms plus a ridge.
func spdPacked(rng *rand.Rand, k int, p []float32) {
	c := fusedFixture(rng, k, k+8)
	GramRHSFusedUnrolled(c.y, k, c.cols, c.vals, p, make([]float32, k))
	AddDiagPacked(p, k, 0.1)
}

func TestCholeskyRowsMatchColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, k := range rowKernelWidths() {
		p, acc := make([]float32, PackedLen(k)), make([]float64, k)
		what := fmt.Sprintf("k=%d", k)

		spdPacked(rng, k, p)
		mustMatchCholesky(t, p, k, nil, what+" SPD")
		mustMatchSweep(t, p, k, acc, what+" factor")

		// A pivot that fails, everywhere one can: the diagonal made negative,
		// then a NaN on it, at a random row; the rows before it are factored
		// and must match, the rest must be untouched.
		for _, bad := range []float32{-1, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			spdPacked(rng, k, p)
			j := rng.Intn(k)
			p[PackedOff(k, j)] = bad
			mustMatchCholesky(t, p, k, nil, fmt.Sprintf("%s diagonal %d = %v", what, j, bad))
		}
		// Specials anywhere: an off-diagonal NaN or Inf reaches a later pivot
		// through the sweep, ±max overflow float32 on the way out.
		for _, finite := range []bool{true, false} {
			spdPacked(rng, k, p)
			for n := 0; n < 3; n++ {
				p[rng.Intn(len(p))] = pickSpecial(rng, finite)
			}
			mustMatchCholesky(t, p, k, nil, fmt.Sprintf("%s specials finite=%v", what, finite))
		}
		ZeroDiagPacked(p, k)
		mustMatchCholesky(t, p, k, nil, what+" zero diagonal")

		// The sweep on its own, compared in float64 before any rounding to
		// float32 can hide a regrouping: random contents, then the
		// cancellation of wide_test.go planted down pairs of columns (rows
		// q hold 2^20 in column j0 and ±m·2^20 in column j1 in turn, so the
		// running sum of element (j0, j1) sits at 2^40 between terms), then
		// specials.
		for i := range p {
			p[i] = float32(rng.NormFloat64())
		}
		mustMatchSweep(t, p, k, acc, what+" random sweep")
		perm := rng.Perm(k)
		for n := 0; n < max(1, k/8) && 2*n+1 < k; n++ {
			j0, j1 := min(perm[2*n], perm[2*n+1]), max(perm[2*n], perm[2*n+1])
			for q := 0; q+1 <= j0; q += 2 {
				m := float32(int(1+rng.Intn(7)) << 20)
				p[PackedOff(k, q)+j0-q], p[PackedOff(k, q)+j1-q] = 1<<20, m
				if q+1 < j0 {
					p[PackedOff(k, q+1)+j0-q-1], p[PackedOff(k, q+1)+j1-q-1] = 1<<20, -m
				}
			}
		}
		mustMatchSweep(t, p, k, acc, what+" cancellation sweep")
		for n := 0; n < 4; n++ {
			p[rng.Intn(len(p))] = pickSpecial(rng, false)
		}
		mustMatchSweep(t, p, k, acc, what+" specials sweep")
	}
}

// TestCholeskyRowsUnaligned starts the triangle at every 4-byte offset and
// the strip at both 8-byte offsets inside a 16-byte window, and checks that
// nothing outside either was written.
func TestCholeskyRowsUnaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const sentinel = 12345
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 13, 32, 33} {
		ref := make([]float32, PackedLen(k))
		spdPacked(rng, k, ref)
		for off := 0; off < 4*2; off++ {
			pOff, aOff := off&3, off>>2
			p, pIntact := asmtest.Unaligned[float32](len(ref), pOff, sentinel)
			acc, accIntact := asmtest.Unaligned[float64](k, aOff, sentinel)
			what := fmt.Sprintf("k=%d offsets p%d acc%d", k, pOff, aOff)
			copy(p, ref)
			mustMatchCholesky(t, p, k, acc, what)
			mustMatchSweep(t, p, k, acc, what)
			if !pIntact() || !accIntact() {
				t.Fatalf("%s: an element outside the triangle or the strip was written", what)
			}
		}
	}
}

// TestCholeskyPackedWiderThanItsStack: past cholStackK the strip is
// allocated, and nothing else changes.
func TestCholeskyPackedWiderThanItsStack(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, k := range []int{cholStackK, cholStackK + 1, 200} {
		p := make([]float32, PackedLen(k))
		spdPacked(rng, k, p)
		mustMatchCholesky(t, p, k, nil, fmt.Sprintf("k=%d", k))
	}
}

// mustMatchAxpy32 runs axpy32(w, f, out) in place and holds it to the
// portable body and the plain loop, started from the same out.
func mustMatchAxpy32(t testing.TB, w float32, f, out []float32, what string) {
	t.Helper()
	port := append([]float32(nil), out...)
	want := append([]float32(nil), out...)
	for i := range want {
		want[i] += w * f[i]
	}
	axpy32Portable(w, f, port)
	axpy32(w, f, out)
	mustSameBits32(t, port, want, what, "portable", "plain loop")
	mustSameBits32(t, out, want, what, KernelName(), "portable")
}

// TestConfRHSKernelMatchesPortable: ConfRHS's svec[i] += w·f[i] at every
// length, on specials (±max overflows the product), and with both operands
// at every 4-byte offset inside a 16-byte window; ConfRHS itself is held to
// ConfGramRHSFused's svec by TestConfRHSMatchesFused.
func TestConfRHSKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	const sentinel = 12345
	for _, n := range append(rowKernelWidths(), 0, 256) {
		for trial := 0; trial < 3; trial++ {
			off := rng.Intn(16)
			f, _ := asmtest.Unaligned[float32](n, off&3, 0)
			out, intact := asmtest.Unaligned[float32](n, off>>2, sentinel)
			for i := range f {
				f[i], out[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
			}
			w := float32(rng.NormFloat64())
			for m := 0; m < trial && n > 0; m++ {
				f[rng.Intn(n)], out[rng.Intn(n)] = pickSpecial(rng, trial == 1), pickSpecial(rng, trial == 1)
				w = pickSpecial(rng, trial == 1)
			}
			mustMatchAxpy32(t, w, f, out, fmt.Sprintf("n=%d trial %d offsets f%d out%d", n, trial, off&3, off>>2))
			if !intact() {
				t.Fatalf("n=%d out offset %d: an element outside out was written", n, off>>2)
			}
		}
	}
}

// fuzzFusedInput decodes fuzz bytes as [k−1, omega, flags] then a payload of
// little-endian float32 bit patterns, read cyclically so a short input still
// fills every operand: the ridge, the ratings, the factor rows. flags bits
// 0–1 are the float32 operands' element offset from a cache line; bit 2
// gathers every nonzero from the last factor row.
func fuzzFusedInput(data []byte) (c *fusedCase, lam float32, packed, svec []float32, ok bool) {
	if len(data) < 3+4 {
		return nil, 0, nil, nil, false
	}
	k, omega, flags := 1+int(data[0])%160, int(data[1])%24, data[2]
	payload := data[3 : 3+(len(data)-3)&^3]
	off := int(flags & 3)
	at := 0
	next := func() float32 {
		v := math.Float32frombits(binary.LittleEndian.Uint32(payload[at:]))
		at = (at + 4) % len(payload)
		return v
	}
	fill := func(n int) []float32 {
		b, _ := asmtest.Unaligned[float32](n, off, 0)
		for i := range b {
			b[i] = next()
		}
		return b
	}
	n := max(omega, 1)
	lam = next()
	c = &fusedCase{k: k, cols: make([]int32, omega)}
	c.vals = fill(omega)
	c.y = fill(n * k)
	for z := range c.cols {
		c.cols[z] = int32(z % n)
		if flags&4 != 0 {
			c.cols[z] = int32(n - 1)
		}
	}
	packed, _ = asmtest.Unaligned[float32](PackedLen(k), off, 0)
	svec, _ = asmtest.Unaligned[float32](k, off, 0)
	return c, lam, packed, svec, true
}

// FuzzFusedMatchesPortable drives one explicit row update's kernels — the
// fused sweep, then the factorization of what it built plus the ridge — from
// arbitrary bits. No CI lane fuzzes, so the seeds below (the table test's
// shapes) are what runs, as ordinary tests; `go test -fuzz` explores from
// them.
func FuzzFusedMatchesPortable(f *testing.F) {
	rng := rand.New(rand.NewSource(79))
	for _, k := range []int{1, 3, 4, 7, 8, 20, 31, 32, 33, 64, 128, 160} {
		for i, omega := range []int{0, 3, 4, 9, 23} {
			data := []byte{byte(k - 1), byte(omega), byte(k + 3*i)}
			for n := 0; n < 97; n++ { // coprime to every operand length: the cycle never lines up
				v := float32(rng.NormFloat64())
				if i == 4 && n%11 == 0 {
					v = dotSpecials[rng.Intn(len(dotSpecials))]
				}
				data = binary.LittleEndian.AppendUint32(data, math.Float32bits(v))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, lam, packed, svec, ok := fuzzFusedInput(data)
		if !ok {
			return
		}
		what := fmt.Sprintf("k=%d omega=%d", c.k, len(c.cols))
		mustMatchFused(t, c, packed, svec, what)
		GramRHSFusedUnrolled(c.y, c.k, c.cols, c.vals, packed, svec)
		AddDiagPacked(packed, c.k, lam)
		mustMatchSweep(t, packed, c.k, make([]float64, c.k), what)
		mustMatchCholesky(t, packed, c.k, nil, what)
	})
}

// rowKernelBench is the fleet2 workload's shape: k = 32, 72 nonzeros
// gathered from a 25 000-row factor.
func rowKernelBench(k int) *fusedCase {
	const rows, omega = 25000, 72
	rng := rand.New(rand.NewSource(7))
	c := &fusedCase{y: randomFactor(rng, rows, k), k: k, cols: make([]int32, omega), vals: make([]float32, omega)}
	for z := range c.cols {
		c.cols[z] = int32(rng.Intn(rows))
		c.vals[z] = 0.5 + rng.Float32()*4.5
	}
	return c
}

// BenchmarkFusedSweep is one row's S1+S2, this build's kernel against the
// portable block body.
func BenchmarkFusedSweep(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		c := rowKernelBench(k)
		packed, svec := make([]float32, PackedLen(k)), make([]float32, k)
		b.Run(fmt.Sprintf("k=%d/portable", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(packed)
				clear(svec)
				for z := 0; z+4 <= len(c.cols); z += 4 {
					fusedBlock4Portable(c.y[int(c.cols[z])*k:][:k], c.y[int(c.cols[z+1])*k:][:k],
						c.y[int(c.cols[z+2])*k:][:k], c.y[int(c.cols[z+3])*k:][:k], c.vals[z:z+4], packed, svec)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/kernel", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GramRHSFusedUnrolled(c.y, k, c.cols, c.vals, packed, svec)
			}
		})
	}
}

// BenchmarkCholeskyPacked is one row's S3 factorization: the column walk
// against the row-ordered form on this build's sweep.
func BenchmarkCholeskyPacked(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		c := rowKernelBench(k)
		ref, p := make([]float32, PackedLen(k)), make([]float32, PackedLen(k))
		GramRHSFusedUnrolled(c.y, k, c.cols, c.vals, ref, make([]float32, k))
		AddDiagPacked(ref, k, 0.1)
		b.Run(fmt.Sprintf("k=%d/columns", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(p, ref)
				if err := choleskyPackedColumns(p, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/rows", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(p, ref)
				if err := CholeskyPacked(p, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
