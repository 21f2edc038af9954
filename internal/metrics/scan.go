package metrics

import "repro/internal/linalg"

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

// ScanTopK scores rows [lo, hi) of y against a query widened to float64
// (xw[j] = float64(x[j]), once per scan) and offers each row for which
// excluded returns false (nil excludes nothing) to t. Rows go through
// linalg.Dot8Wide eight at a time, then linalg.Dot4Wide and Dot1Wide for
// the tail, so every score is bit for bit linalg.Dot(x, y.Row(i)) and the
// heap is exactly what the row-at-a-time loop in TopN would leave. This is
// the serving scan; TopN and TopNSort stay on linalg.Dot as the references
// it is tested against. Callers slab the range and check their context
// between calls. It allocates nothing.
func ScanTopK(xw []float64, y *linalg.Dense, lo, hi int, excluded func(int) bool, t *TopK) {
	k := y.Cols
	sk := NewSink(t, excluded)
	i := lo
	var s [8]float64
	for ; i+8 <= hi; i += 8 {
		linalg.Dot8Wide(xw, y.Data[i*k:], k, &s)
		for r, v := range s {
			sk.Offer(i+r, v)
		}
	}
	if i+4 <= hi {
		s[0], s[1], s[2], s[3] = linalg.Dot4Wide(xw, y.Data[i*k:], k)
		for r, v := range s[:4] {
			sk.Offer(i+r, v)
		}
		i += 4
	}
	for ; i < hi; i++ {
		sk.Offer(i, linalg.Dot1Wide(xw, y.Data[i*k:]))
	}
}
