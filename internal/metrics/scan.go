package metrics

import (
	"math"
	"math/bits"

	"repro/internal/linalg"
)

// Sink filters heap pushes through a cached threshold: most candidates in
// a warm scan lose to the current heap minimum, and the cached compare
// skips the Push call for all of them. The exclusion predicate runs behind
// the same filter — a candidate that cannot enter the heap never pays for
// it, which turns a per-item rated-set lookup (serve.RatedExcluder: a
// search of the row's restart points in its sparse.Gaps and a decode of
// at most 31 gaps) into a few dozen calls per scan. The filter condition mirrors weaker exactly —
// strictly stronger score, or equal score with a lower item index — so the
// heap contents are identical to pushing every unexcluded candidate. It is
// the one copy of that rule: the float32 scan below and both quantized
// scans (internal/quant) offer through it.
type Sink struct {
	t        *TopK
	excluded func(int) bool
	thrScore float64
	thrItem  int
	full     bool
}

// NewSink wraps t for one scan; excluded may be nil.
func NewSink(t *TopK, excluded func(int) bool) Sink {
	s := Sink{t: t, excluded: excluded}
	s.refresh()
	return s
}

func (s *Sink) refresh() {
	thr, full := s.t.Threshold()
	s.thrScore, s.thrItem, s.full = thr.Score, thr.Item, full
}

// Threshold returns the score a candidate must reach to enter the heap and
// whether the heap is full; until it is, every candidate is admitted.
func (s *Sink) Threshold() (score float64, full bool) { return s.thrScore, s.full }

// Offer pushes the candidate unless it loses to the threshold or is
// excluded.
func (s *Sink) Offer(item int, score float64) {
	if s.full && (score < s.thrScore || (score == s.thrScore && item > s.thrItem)) {
		return
	}
	s.admit(item, score)
}

func (s *Sink) admit(item int, score float64) {
	if s.excluded != nil && s.excluded(item) {
		return
	}
	s.t.Push(item, score)
	s.refresh()
}

// MaxScreenK is the widest padded row the screen takes: a value quantizes
// to one of −2047…2047 (12 bits), so a row's int32 sum of k8 products stays
// exact while k8·2047² < 2³¹, which holds up to k8 = 512 and fails at 520.
// A caller can size a query buffer for PrepareScan by it.
const MaxScreenK = 512

// screenLevels is the largest quantized magnitude, 2¹¹ − 1.
const screenLevels = 2047

// boundMargin covers the float64 rounding in a bound computed with k ≤ 512
// terms: each step's relative error is ≤ 2⁻⁵³, and no bound here takes more
// than 2k + 20 of them, far below 2⁻³⁰.
const boundMargin = 1 + 0x1p-30

// Screen is the int16 copy of an item-factor matrix that the float32 scan
// screens with (ScanTopK): row i is ŷᵢ = round(yᵢ/s_y) at the one scale
// s_y = max|y|/2047, zero-padded to k8 = ⌈k/8⌉·8 components. With it go
// R ≥ maxᵢ‖yᵢ − s_y·ŷᵢ‖₂, the residuals exact before one rounding (FMA),
// and M ≥ maxᵢ‖yᵢ‖₂, both rounded up. It is built once per model and
// only read after, so any number of scans share it.
type Screen struct {
	q     []int16
	k, k8 int
	sy    float64 // s_y
	r, m  float64 // R and M
}

// NewScreen builds y's screen, or returns nil — every row gets its exact
// score — when the build has no vector screen (linalg.ScreenVectorized:
// the portable body loses to Dot8Wide), when k8 > MaxScreenK, or when M is
// 0 or not finite (a zero matrix, or a NaN or Inf anywhere in y).
func NewScreen(y *linalg.Dense) *Screen {
	if !linalg.ScreenVectorized() {
		return nil
	}
	return buildScreen(y)
}

// Bytes is how many bytes the screen's int16 copy holds. 0 for nil.
func (s *Screen) Bytes() int {
	if s == nil {
		return 0
	}
	return 2 * len(s.q)
}

// buildScreen is NewScreen without the build's gate: tests screen with the
// portable body through it.
func buildScreen(y *linalg.Dense) *Screen {
	k := y.Cols
	k8 := (k + 7) &^ 7
	if y.Rows == 0 || k == 0 || k8 > MaxScreenK {
		return nil
	}
	m := linalg.MaxRowNorm(y)
	if !(m > 0 && m <= math.MaxFloat64) {
		return nil
	}
	var top float64
	for _, v := range y.Data[:y.Rows*k] {
		top = max(top, math.Abs(float64(v)))
	}
	sc := &Screen{q: make([]int16, y.Rows*k8), k: k, k8: k8,
		sy: top / screenLevels, m: m * boundMargin}
	var r2 float64
	for i := range y.Rows {
		r2 = max(r2, quantize(sc.q[i*k8:][:k], y.Row(i), sc.sy))
	}
	sc.r = math.Sqrt(r2) * boundMargin
	return sc
}

// quantize writes round(v/s), clamped to ±2047, for each v of src into dst
// and returns Σ(v − s·v̂)²: each residual is exact before its one rounding
// (FMA), so the sum carries only float64 rounding, which boundMargin covers.
func quantize(dst []int16, src []float32, s float64) (resid2 float64) {
	for j, v := range src {
		w := float64(v)
		l := min(max(math.Round(w/s), -screenLevels), screenLevels)
		dst[j] = int16(l)
		e := math.FMA(-s, l, w)
		resid2 += e * e
	}
	return resid2
}

// ScanQuery is one float32 scan's query, prepared once per scan by
// PrepareScan: its float64 widening and, where the screen runs, its int16
// copy and the bound and scales that turn a heap threshold into an integer
// cut.
type ScanQuery struct {
	xw       []float64
	sc       *Screen // nil: the screen is off for this query
	xq       []int16 // x̂ = round(x/s_x), padded to sc.k8
	errb     float64 // ≥ |s_x·s_y·(x̂·ŷᵢ) − Dot(x, yᵢ)| for every row
	sLo, sHi float64 // s_x·s_y lies in [sLo, sHi]
}

// PrepareScan widens x into buf's backing array (one of its own when buf is
// too short) and, when sc is not nil, quantizes it into xq's (one of its own
// when xq is shorter than the screen's padded width): s_x = max|x|/2047,
// x̂ = round(x/s_x) and ρ_x = ‖x − s_x·x̂‖₂. For k = len(x), u = 2⁻⁵³ and
// γ_k = k·u/(1 − k·u),
//
//	errb = (‖x‖₂·R + ρ_x·(M + R) + γ_k·‖x‖₂·M)·(1 + 2⁻³⁰)
//
// bounds |s_x·s_y·(x̂·ŷᵢ) − Dot(x, yᵢ)| for every row of sc (DESIGN.md §3b
// has the derivation). The screen is off for this query — every row gets
// its exact score — when sc is nil, its width is not len(x), or max|x| is 0
// or not finite.
func PrepareScan(x []float32, buf []float64, xq []int16, sc *Screen) ScanQuery {
	if cap(buf) < len(x) {
		buf = make([]float64, 0, len(x))
	}
	xw := buf[:0]
	var sq, top float64
	for _, v := range x {
		w := float64(v)
		xw = append(xw, w)
		sq += w * w
		top = max(top, math.Abs(w))
	}
	q := ScanQuery{xw: xw}
	if sc == nil || len(x) != sc.k || !(top > 0 && top <= math.MaxFloat64) {
		return q
	}
	if cap(xq) < sc.k8 {
		xq = make([]int16, sc.k8)
	}
	q.sc, q.xq = sc, xq[:sc.k8]
	sx := top / screenLevels
	rho := math.Sqrt(quantize(q.xq[:len(x)], x, sx))
	clear(q.xq[len(x):])
	q.errb = screenBound(len(x), math.Sqrt(sq), rho, sc.m, sc.r)
	s := sx * sc.sy
	q.sLo, q.sHi = math.Nextafter(s, 0), math.Nextafter(s, math.Inf(1))
	return q
}

// screenBound is PrepareScan's errb for a query of width k, norm normX and
// quantization residual rho against rows of norm at most m and residual at
// most r. x·y = s_x·s_y·(x̂·ŷ) + e_x·y + s_x·x̂·e_y with e_x = x − s_x·x̂ and
// e_y = y − s_y·ŷ, so |x·y − s_x·s_y·(x̂·ŷ)| ≤ ρ_x·M + (‖x‖ + ρ_x)·R, and
// Dot adds exact float64 products with error ≤ γ_k·‖x‖·M. The factor
// covers the rounding of ‖x‖, ρ_x and the expression itself.
func screenBound(k int, normX, rho, m, r float64) float64 {
	kf := float64(k)
	gamma := kf * 0x1p-53 / (1 - kf*0x1p-53)
	return (normX*r + rho*(m+r) + gamma*normX*m) * boundMargin
}

// cut returns an integer c ≤ (thr − errb)/(s_x·s_y), clamped to int32: a
// row whose int32 sum is below it has s_x·s_y·sum < thr − errb, so
// Dot < thr and the Sink would reject it — and a tie, which may still win
// on its lower index, is never ruled out. Each float64 step rounds toward
// −∞ or is followed by one step down, and the division takes the end of
// [sLo, sHi] that keeps the quotient low, so c is at most one below the
// exact floor. Past the int32 range the clamp keeps the meaning: no sum
// reaches MaxInt32 (|sum| ≤ 512·2047² < 2³¹ − 1), and every sum reaches
// MinInt32.
func (q *ScanQuery) cut(thr float64) int32 {
	d := math.Nextafter(thr-q.errb, math.Inf(-1))
	s := q.sHi
	if d < 0 {
		s = q.sLo
	}
	c := math.Floor(math.Nextafter(d/s, math.Inf(-1)))
	switch {
	case c >= math.MaxInt32:
		return math.MaxInt32
	case c >= math.MinInt32:
		return int32(c)
	}
	return math.MinInt32 // below the range, or NaN
}

// ScanTopK scores rows [lo, hi) of y against a prepared query and offers
// each row for which excluded returns false (nil excludes nothing) to t.
// Every offered score is bit for bit linalg.Dot(x, y.Row(i)), and the heap
// is exactly what the row-at-a-time loop in TopN would leave. This is the
// serving scan; TopN stays on linalg.Dot as the reference it is tested
// against. The query's screen, if any, must be y's (NewScreen(y)).
// Callers slab the range and check their context between calls. It
// allocates nothing, and returns how many rows got an exact score.
//
// Rows go eight at a time. Until the heap is full, or with the screen off,
// a block is scored by linalg.Dot8Wide. Once it is full, linalg.Screen8
// walks the rest of the range's whole blocks in the int16 copy against the
// cut below the heap threshold and stops at the first block with a row at
// or above it: a row below the cut cannot enter the heap and is skipped, a
// block with every row at or above it goes to Dot8Wide, and any other row
// that passes gets linalg.Dot1Wide; then the walk resumes at the next
// block under the threshold those offers left. The 4- and 1-row tails
// always get linalg.Dot4Wide and Dot1Wide.
func ScanTopK(q ScanQuery, y *linalg.Dense, lo, hi int, excluded func(int) bool, t *TopK) (scored int) {
	k := y.Cols
	sk := NewSink(t, excluded)
	sc := q.sc
	if sc != nil && len(sc.q) != y.Rows*sc.k8 {
		sc = nil // not y's screen
	}
	i := lo
	var s [8]float64
	for ; i+8 <= hi; i += 8 {
		if _, full := sk.Threshold(); full && sc != nil {
			break
		}
		linalg.Dot8Wide(q.xw, y.Data[i*k:], k, &s)
		scored += 8
		for r, v := range s {
			sk.Offer(i+r, v)
		}
	}
	if sc != nil {
		k8, end := sc.k8, i+(hi-i)&^7
		cut, cutFor := int32(0), math.NaN()
		for i < end {
			if thr, _ := sk.Threshold(); thr != cutFor { // a push raised the threshold
				cut, cutFor = q.cut(thr), thr
			}
			b, mask := linalg.Screen8(q.xq, sc.q[i*k8:end*k8], cut)
			i += 8 * b
			if mask == 0 {
				break
			}
			rows := y.Data[i*k:]
			if mask == 0xFF {
				linalg.Dot8Wide(q.xw, rows, k, &s)
				for r, v := range s {
					sk.Offer(i+r, v)
				}
			} else {
				for m := mask; m != 0; m &= m - 1 {
					r := bits.TrailingZeros(uint(m))
					sk.Offer(i+r, linalg.Dot1Wide(q.xw, rows[r*k:]))
				}
			}
			scored += bits.OnesCount(uint(mask))
			i += 8
		}
	}
	if i+4 <= hi {
		s[0], s[1], s[2], s[3] = linalg.Dot4Wide(q.xw, y.Data[i*k:], k)
		for r, v := range s[:4] {
			sk.Offer(i+r, v)
		}
		i += 4
		scored += 4
	}
	for ; i < hi; i++ {
		sk.Offer(i, linalg.Dot1Wide(q.xw, y.Data[i*k:]))
		scored++
	}
	return scored
}
