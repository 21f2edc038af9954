package metrics

import "sort"

// Scored pairs an item index with its predicted score.
type Scored struct {
	Item  int
	Score float64
}

// TopK is a bounded min-heap that retains the k strongest Scored entries
// seen so far: the weakest survivor sits at the root and is evicted as
// stronger candidates arrive, so selecting the top k of N candidates costs
// O(N·log k) instead of the O(N·log N) full sort. Ties are broken toward
// the lower item index for determinism. Both the evaluation-side TopN and
// the serving-side scans build on it and drain it sorted with Drain.
type TopK struct {
	k int
	h []Scored
}

// NewTopK returns an empty selector retaining the k strongest entries.
// k <= 0 yields a selector that retains nothing.
func NewTopK(k int) *TopK {
	if k < 0 {
		k = 0
	}
	return &TopK{k: k, h: make([]Scored, 0, k)}
}

// weaker reports whether a loses to b: lower score, with the higher item
// index losing ties (so the lower index is kept among equals).
func weaker(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}

// Len returns the number of retained entries.
func (t *TopK) Len() int { return len(t.h) }

// Threshold returns the weakest retained entry and whether the selector is
// full; until it is full every candidate is admitted.
func (t *TopK) Threshold() (Scored, bool) {
	if len(t.h) < t.k || t.k == 0 {
		return Scored{}, false
	}
	return t.h[0], true
}

// Push offers a candidate, keeping only the k strongest.
func (t *TopK) Push(item int, score float64) {
	s := Scored{Item: item, Score: score}
	if len(t.h) < t.k {
		t.h = append(t.h, s)
		t.siftUp(len(t.h) - 1)
		return
	}
	if t.k > 0 && weaker(t.h[0], s) {
		t.h[0] = s
		t.siftDown(0)
	}
}

// Reset empties the selector in place, keeping its backing storage, so a
// steady-state serving loop can reuse one selector with zero allocations.
func (t *TopK) Reset() { t.h = t.h[:0] }

// Drain returns the retained entries strongest-first and resets the
// selector to empty.
func (t *TopK) Drain() []Scored {
	out := t.h
	t.h = make([]Scored, 0, t.k)
	sort.Slice(out, func(a, b int) bool { return weaker(out[b], out[a]) })
	return out
}

func (t *TopK) siftUp(c int) {
	for c > 0 {
		p := (c - 1) / 2
		if !weaker(t.h[c], t.h[p]) {
			return
		}
		t.h[c], t.h[p] = t.h[p], t.h[c]
		c = p
	}
}

func (t *TopK) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(t.h) && weaker(t.h[l], t.h[min]) {
			min = l
		}
		if r < len(t.h) && weaker(t.h[r], t.h[min]) {
			min = r
		}
		if min == i {
			return
		}
		t.h[i], t.h[min] = t.h[min], t.h[i]
		i = min
	}
}
