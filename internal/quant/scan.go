package quant

import (
	"math"

	"repro/internal/metrics"
)

// The scan kernels below are the serving hot path: one call streams a
// row range of the quantized matrix against a prepared query and offers
// every unexcluded item to a metrics.TopK. Dequantize, dot and push are
// fused — no dequantized row is ever materialized — and items are blocked
// four at a time so four independent accumulator chains overlap, the same
// trick linalg.GramRHSFusedUnrolled plays on nonzeros. The kernels
// allocate nothing: a steady-state scan is 0 allocs/request (pinned by
// test), matching the training loop's zero-allocs-per-row discipline.

// f16Mul rescales the exponent-shifted half bits to their value: decoding
// a half by bit-shifting alone leaves the exponent biased 15-vs-127, and
// multiplying by 2^112 corrects it. This maps normal AND subnormal halves
// exactly (only Inf/NaN would decode wrong, and EncodeDense never emits
// them), so the kernel needs no branches per element.
const f16Mul = float32(0x1p112)

func h2f(h uint16) float32 {
	return math.Float32frombits(uint32(h&0x8000)<<16|uint32(h&0x7fff)<<13) * f16Mul
}

// Query is a scoring vector prepared once per request: the int8 kernel
// pre-quantizes the user factor so every shard's scan multiplies int8 by
// int8 and accumulates exactly in int32 (the widening happens once, in
// the final float32 scale product). The fp16 kernel reads x as float32
// and widens each half into a float32 accumulator.
type Query struct {
	x      []float32
	xq     []int8
	xscale float32
	// qnorm is an upper bound on the 2-norm of the query as the kernels see
	// it, inflated to cover their rounding: qnorm·Ranked.Bound[p] dominates
	// the computed |score| of row p (see Prepare, f16QueryNorm). Only Ranked
	// reads it.
	qnorm float64
}

// Prepare builds the Query for one user factor. len(x) must equal Cols.
// The single slice allocation here (int8 path only) is the request's
// whole scan overhead; ScanTopK itself allocates nothing.
func (q *Matrix) Prepare(x []float32) Query {
	if len(x) != q.Cols {
		panic("quant: query length does not match matrix width")
	}
	qr := Query{x: x}
	if q.Prec != I8 {
		qr.qnorm = f16QueryNorm(x)
		return qr
	}
	maxAbs := float32(0)
	for _, v := range x {
		if a := abs32(v); a > maxAbs {
			maxAbs = a
		}
	}
	qr.xq = make([]int8, len(x))
	if maxAbs == 0 {
		return qr // all-zero query: every score is exactly 0
	}
	qr.xscale = maxAbs / 127
	inv := 1 / qr.xscale
	var sumSq int64
	for c, v := range x {
		iv := int32(math.RoundToEven(float64(v * inv)))
		if iv > 127 {
			iv = 127
		} else if iv < -127 {
			iv = -127
		}
		qr.xq[c] = int8(iv)
		sumSq += int64(iv * iv)
	}
	// The int8 dot is exact, so |dot| ≤ ‖x̂‖‖ŷ‖ holds exactly; 1e-12 covers
	// the square root and the float64 products on either side of the compare.
	qr.qnorm = float64(qr.xscale) * math.Sqrt(float64(sumSq)) * (1 + 1e-12)
	return qr
}

// f16QueryNorm bounds ‖x‖₂ for the fp16 kernel, whose score is a float32
// accumulation: the computed dot is within (1+2⁻²⁴)^(k+1) of Σ|x_j||ŷ_j| ≤
// ‖x‖‖ŷ‖, and (k+2)·2⁻²³ dominates that. A query that could take the
// float32 arithmetic out of its normal range — a component so small that a
// product with the smallest half (2⁻²⁴) is subnormal, or a norm so large
// that a partial sum could overflow — gets +Inf, which switches pruning off
// for the request: outside that range relative error bounds do not hold.
func f16QueryNorm(x []float32) float64 {
	var sumSq float64
	for _, v := range x {
		a := math.Abs(float64(v))
		if a != 0 && a < 0x1p-100 {
			return math.Inf(1)
		}
		sumSq += a * a
	}
	k := float64(len(x))
	norm := math.Sqrt(sumSq) * (1 + (k+2)*0x1p-23)
	if !(norm*math.Sqrt(k) < 0x1p126) { // also catches a NaN component
		return math.Inf(1)
	}
	return norm
}

// ScanTopK scores items [lo, hi) against the prepared query and offers
// each item for which excluded returns false (nil excludes nothing) to t.
// Callers slab the range and check their context between calls, exactly
// like the float32 scan.
func (q *Matrix) ScanTopK(qr Query, lo, hi int, excluded func(int) bool, t *metrics.TopK) {
	switch q.Prec {
	case F16:
		q.scanF16(qr.x, lo, hi, excluded, t)
	case I8:
		q.scanI8(qr.xq, qr.xscale, lo, hi, excluded, t)
	}
}

// The dot kernels take the payload from a row's first element on (rows
// are k apart) and are shared by the natural-order scan below and the
// ranked scan in ranked.go.

// dot4F16 is the fp16 block kernel: four consecutive rows per pass, their
// dots computed branch-free on contiguous memory (scoring an excluded row
// costs less than bookkeeping around it — metrics.Sink drops it), the four
// accumulator chains hiding each other's FP latency. Strip slices pin each
// row's length to len(x), eliding inner bounds checks.
func dot4F16(x []float32, rows []uint16, k int) (s0, s1, s2, s3 float32) {
	r0 := rows[:len(x)]
	r1 := rows[k:][:len(x)]
	r2 := rows[2*k:][:len(x)]
	r3 := rows[3*k:][:len(x)]
	for j, xv := range x {
		s0 += xv * h2f(r0[j])
		s1 += xv * h2f(r1[j])
		s2 += xv * h2f(r2[j])
		s3 += xv * h2f(r3[j])
	}
	return
}

func dotF16(x []float32, row []uint16) (s float32) {
	row = row[:len(x)]
	for j, xv := range x {
		s += xv * h2f(row[j])
	}
	return
}

// dot4I8Portable is the int8 block kernel in Go. int8×int8 products
// accumulate exactly in int32 (|p| ≤ 128², far from overflow for any
// plausible k, and wrapping if it ever came to that); the only rounding in
// the whole dot is the caller's final two-scale widening. Exact integers
// mean any summation order gives the same bits, which is what lets the
// serving scan (Ranked.ScanTopK) run blocksI8 — built on this loop, or a
// vector kernel where the build has one (dot_amd64.s) — while the
// natural-order scan below stays on this one on every architecture:
// Matrix.ScanTopK, TopN and Score are the reference the serving kernel is
// checked against.
func dot4I8Portable(xq, rows []int8, k int) (s0, s1, s2, s3 int32) {
	r0 := rows[:len(xq)]
	r1 := rows[k:][:len(xq)]
	r2 := rows[2*k:][:len(xq)]
	r3 := rows[3*k:][:len(xq)]
	for j, xv := range xq {
		s0 += int32(xv) * int32(r0[j])
		s1 += int32(xv) * int32(r1[j])
		s2 += int32(xv) * int32(r2[j])
		s3 += int32(xv) * int32(r3[j])
	}
	return
}

// KernelName names the int8 kernel this build's serving scan runs:
// "sse2" on amd64, "portable" elsewhere and under -tags purego.
func KernelName() string { return kernelName }

func dotI8(xq, row []int8) (s int32) {
	row = row[:len(xq)]
	for j, xv := range xq {
		s += int32(xv) * int32(row[j])
	}
	return
}

func (q *Matrix) scanF16(x []float32, lo, hi int, excluded func(int) bool, t *metrics.TopK) {
	k := q.Cols
	sk := metrics.NewSink(t, excluded)
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0, s1, s2, s3 := dot4F16(x, q.F16[i*k:], k)
		sk.Offer(i, float64(s0*q.Scales[i]))
		sk.Offer(i+1, float64(s1*q.Scales[i+1]))
		sk.Offer(i+2, float64(s2*q.Scales[i+2]))
		sk.Offer(i+3, float64(s3*q.Scales[i+3]))
	}
	for ; i < hi; i++ {
		sk.Offer(i, float64(dotF16(x, q.F16[i*k:])*q.Scales[i]))
	}
}

func (q *Matrix) scanI8(xq []int8, xscale float32, lo, hi int, excluded func(int) bool, t *metrics.TopK) {
	k := q.Cols
	sk := metrics.NewSink(t, excluded)
	xs := float64(xscale)
	i := lo
	for ; i+4 <= hi; i += 4 {
		s0, s1, s2, s3 := dot4I8Portable(xq, q.I8[i*k:], k)
		sk.Offer(i, xs*float64(q.Scales[i])*float64(s0))
		sk.Offer(i+1, xs*float64(q.Scales[i+1])*float64(s1))
		sk.Offer(i+2, xs*float64(q.Scales[i+2])*float64(s2))
		sk.Offer(i+3, xs*float64(q.Scales[i+3])*float64(s3))
	}
	for ; i < hi; i++ {
		sk.Offer(i, xs*float64(q.Scales[i])*float64(dotI8(xq, q.I8[i*k:])))
	}
}

// TopN scores the full catalog single-threaded and returns the n
// strongest items, strongest first — the natural-order counterpart of the
// serving layer's ranked scan, used by evaluation tools and tests. Both
// push into metrics.TopK, so tie-breaking (lower item index wins) is
// identical to the float32 path.
func (q *Matrix) TopN(x []float32, excluded func(int) bool, n int) []metrics.Scored {
	if n <= 0 || q.Rows == 0 {
		return nil
	}
	t := metrics.NewTopK(n)
	q.ScanTopK(q.Prepare(x), 0, q.Rows, excluded, t)
	return t.Drain()
}
