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
// it, which turns a per-item binary search (serve.RatedExcluder) into a
// handful of calls per scan. The filter condition mirrors weaker exactly —
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

// screenGate bounds ‖x‖₂·max‖y_i‖₂ for the float32 screen: below it no
// float32 product or partial sum of a scan can overflow (Cauchy–Schwarz
// bounds each by the product of the norms, far below 2¹²⁸).
const screenGate = 0x1p100

// ScanQuery is one float32 scan's query, prepared once per scan task by
// PrepareScan: the query, its float64 widening, and the bound that lets the
// float32 screen rule rows out.
type ScanQuery struct {
	x    []float32
	xw   []float64
	errb float64 // ≥ |screen value − Dot(x, y_i)| for every row; NaN: the screen is off
}

// PrepareScan widens x into buf's backing array (one of its own when buf
// is too short) and derives the screen's error bound from maxNorm,
// a bound on ‖y_i‖₂ over every row the query will scan
// (linalg.MaxRowNorm). For k = len(x), u₃₂ = 2⁻²⁴, u₆₄ = 2⁻⁵³ and
// γ_k(u) = k·u/(1 − k·u):
//
//	errb = (γ_k(u₃₂) + γ_k(u₆₄))·‖x‖₂·maxNorm·(1 + 2⁻²⁰) + k·2⁻¹⁴⁹
//
// bounds |screen value − Dot(x, y_i)| (DESIGN.md §3b has the derivation).
// The screen is off — every row gets its exact score — unless the build
// screens at this width (linalg.ScreenVectorized), maxNorm is a positive
// finite number (NaN and Inf rows, and the zero value of a bound nobody
// computed, all fail that) and ‖x‖₂·maxNorm < 2¹⁰⁰.
func PrepareScan(x []float32, buf []float64, maxNorm float64) ScanQuery {
	if cap(buf) < len(x) {
		buf = make([]float64, 0, len(x))
	}
	xw := buf[:0]
	var sq float64
	for _, v := range x {
		w := float64(v)
		xw = append(xw, w)
		sq += w * w
	}
	q := ScanQuery{x: x, xw: xw, errb: math.NaN()}
	normX := math.Sqrt(sq)
	if linalg.ScreenVectorized(len(x)) && maxNorm > 0 && normX*maxNorm < screenGate && len(x) < 1<<20 {
		q.errb = screenBound(len(x), normX, maxNorm)
	}
	return q
}

// screenBound is PrepareScan's errb for a query of width k and norm normX
// against rows of norm at most maxNorm.
func screenBound(k int, normX, maxNorm float64) float64 {
	kf := float64(k)
	gamma := func(u float64) float64 { return kf * u / (1 - kf*u) }
	return (gamma(0x1p-24)+gamma(0x1p-53))*normX*maxNorm*(1+0x1p-20) + kf*0x1p-149
}

// cut returns the largest float32 at or below thr − errb, rounded
// downward: a row whose screen value v is below it has Dot < v + errb <
// thr, so the Sink would reject it — and a tie, which may still win on its
// lower index, is never ruled out.
func (q *ScanQuery) cut(thr float64) float32 {
	// The subtraction rounds to nearest; one float64 step down lands at or
	// below the exact difference.
	d := math.Nextafter(thr-q.errb, math.Inf(-1))
	c := float32(d)
	if float64(c) > d {
		c = math.Nextafter32(c, float32(math.Inf(-1)))
	}
	return c
}

// ScanTopK scores rows [lo, hi) of y against a prepared query and offers
// each row for which excluded returns false (nil excludes nothing) to t.
// Every offered score is bit for bit linalg.Dot(x, y.Row(i)), and the heap
// is exactly what the row-at-a-time loop in TopN would leave. This is the
// serving scan; TopN and TopNSort stay on linalg.Dot as the references it is
// tested against. Callers slab the range and check their context between
// calls. It allocates nothing, and returns how many rows got an exact score.
//
// Rows go eight at a time. Until the heap is full, or with the screen off,
// a block is scored by linalg.Dot8Wide. Once it is full, linalg.Screen8
// first compares the block's float32 screen values against the cut below
// the heap threshold: a row below it cannot enter the heap and is skipped,
// a block with every row at or above it goes to Dot8Wide, and any other
// row that passes gets linalg.Dot1Wide. The 4- and 1-row tails always get
// linalg.Dot4Wide and Dot1Wide.
func ScanTopK(q ScanQuery, y *linalg.Dense, lo, hi int, excluded func(int) bool, t *TopK) (scored int) {
	k := y.Cols
	sk := NewSink(t, excluded)
	screen := !math.IsNaN(q.errb)
	cut, cutFor := float32(math.Inf(-1)), math.NaN()
	i := lo
	var s [8]float64
	for ; i+8 <= hi; i += 8 {
		rows := y.Data[i*k:]
		if thr, full := sk.Threshold(); screen && full {
			if thr != cutFor { // a push raised the threshold
				cut, cutFor = q.cut(thr), thr
			}
			mask := linalg.Screen8(q.x, rows, k, cut)
			if mask != 0xFF {
				scored += bits.OnesCount32(mask)
				for ; mask != 0; mask &= mask - 1 {
					r := bits.TrailingZeros32(mask)
					sk.Offer(i+r, linalg.Dot1Wide(q.xw, rows[r*k:]))
				}
				continue
			}
		}
		linalg.Dot8Wide(q.xw, rows, k, &s)
		scored += 8
		for r, v := range s {
			sk.Offer(i+r, v)
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
