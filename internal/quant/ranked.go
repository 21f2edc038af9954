package quant

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/metrics"
)

// Ranked is a quantized matrix stored in scan order: rows sorted by
// descending bound_i = Scales[i]·‖payload_i‖₂, the Cauchy–Schwarz limit on
// what row i can score per unit of query norm. A top-N scan that walks rows
// in that order can stop at the first row whose limit is under the heap
// minimum — every later row's is lower still — and the heap it leaves is
// exactly the full scan's: nothing is approximated, rows are only skipped
// once none of them can change the answer. Implicit-ALS item norms follow
// item popularity, so on such a model the scan ends after a small fraction
// of the catalog; on a flat-norm model it degenerates to the full scan plus
// one compare per four rows.
//
// Ranked owns a permuted copy of the payload and scales (never a
// re-quantization: row p is byte-for-byte source row ID[p]), so the source
// Matrix can be dropped once Rank returns.
type Ranked struct {
	Prec       Precision
	Rows, Cols int
	MaxAbsErr  float64 // the source encoding's

	// ID maps a scan position to the source row it holds; results report
	// source rows. Bound[p] ≥ bound of row ID[p], rounded up to float32, and
	// is non-increasing in p (equal bounds keep source order).
	ID    []int32
	Bound []float32

	perm Matrix // the rows in scan order
}

// Rank builds the scan-order copy of m.
func Rank(m *Matrix) *Ranked {
	k := m.Cols
	exact := make([]float64, m.Rows)
	for i := range exact {
		var sumSq float64
		switch m.Prec {
		case F16:
			for _, h := range m.F16[i*k:][:k] {
				v := float64(h2f(h))
				sumSq += v * v
			}
		case I8:
			var s int64
			for _, v := range m.I8[i*k:][:k] {
				s += int64(v) * int64(v)
			}
			sumSq = float64(s)
		}
		exact[i] = math.Abs(float64(m.Scales[i])) * math.Sqrt(sumSq)
	}
	r := &Ranked{Prec: m.Prec, Rows: m.Rows, Cols: k, MaxAbsErr: m.MaxAbsErr,
		ID: make([]int32, m.Rows), Bound: make([]float32, m.Rows),
		perm: Matrix{Prec: m.Prec, Rows: m.Rows, Cols: k, Scales: make([]float32, m.Rows)}}
	for i := range r.ID {
		r.ID[i] = int32(i)
	}
	slices.SortFunc(r.ID, func(a, b int32) int {
		if c := cmp.Compare(exact[b], exact[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	switch m.Prec {
	case F16:
		r.perm.F16 = make([]uint16, len(m.F16))
	case I8:
		r.perm.I8 = make([]int8, len(m.I8))
	}
	for p, id := range r.ID {
		i := int(id)
		r.Bound[p] = roundUp32(exact[i])
		r.perm.Scales[p] = m.Scales[i]
		switch m.Prec {
		case F16:
			copy(r.perm.F16[p*k:][:k], m.F16[i*k:][:k])
		case I8:
			copy(r.perm.I8[p*k:][:k], m.I8[i*k:][:k])
		}
	}
	return r
}

// roundUp32 returns a float32 no smaller than v·(1+1e-9): the margin
// absorbs the float64 rounding in v itself (a k-term sum of squares, a
// square root and a product), the direction keeps the bound a bound. It is
// monotone, so sorting by v sorts the results.
func roundUp32(v float64) float32 {
	v *= 1 + 1e-9
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Prepare builds the Query for one user factor, exactly as the source
// Matrix would: a Ranked scan and a Matrix scan of one Query compute the
// same score for the same row.
func (r *Ranked) Prepare(x []float32) Query { return r.perm.Prepare(x) }

// scoreFloor is added to every bound before the stop rule compares it: a
// float32 score that underflows is rounded with an absolute error of up to
// 2⁻¹⁵⁰, which no relative margin covers, but such a score is itself at
// most 2⁻¹²⁶. (The int8 path scores in float64 and never gets there; one
// rule serves both.)
const scoreFloor = 0x1p-126

// threshold is the score a row must reach to be offered to sk: the heap
// minimum's, or −Inf — which every score reaches and no bound falls under —
// while the heap is not full.
func threshold(sk *metrics.Sink) float64 {
	thr, full := sk.Threshold()
	if !full {
		return math.Inf(-1)
	}
	return thr
}

// outOfReach is the stop rule: with the heap full, no row whose computed
// |score| is at most qnorm·bound can enter it. Strict — a row that only
// ties the heap minimum's score can still win on its lower index. The
// explicit float64 conversion keeps the product rounded on its own (the Go
// spec lets a compiler fuse x*y+z otherwise), as the kernel rounds it.
func outOfReach(sk *metrics.Sink, qnorm float64, bound float32) bool {
	return float64(qnorm*float64(bound))+scoreFloor < threshold(sk)
}

// ScanTopK scores scan positions [lo, hi) against the prepared query and
// offers each row, under its source index, to t — the same candidates, the
// same scores and the same exclusion and tie-break as Matrix.ScanTopK over
// the source rows, in a different order. It returns how many positions it
// scored: fewer than hi-lo means the stop rule fired, and every position
// from lo+scored on, to the end of the matrix, is out of the heap's reach.
// Callers slab the range and check their context between calls.
func (r *Ranked) ScanTopK(qr Query, lo, hi int, excluded func(int) bool, t *metrics.TopK) int {
	if lo >= hi {
		return 0
	}
	qnorm := qr.qnorm
	// The float32 product of dot and scale overflows to ±Inf past any
	// finite bound; Bound[lo] is the range's largest, so one check up front
	// keeps the whole range clear of that (never true on the int8 path,
	// harmless there).
	if !(qnorm*float64(r.Bound[lo]) < 0x1p126) {
		qnorm = math.Inf(1)
	}
	// One loop per precision, picked here and not per block: the block
	// kernel is the only thing the two differ in.
	if r.Prec == I8 {
		return r.scanI8(qr, qnorm, lo, hi, excluded, t)
	}
	return r.scanF16(qr, qnorm, lo, hi, excluded, t)
}

// scanI8 is ScanTopK's int8 loop: blocksI8 walks the range's 4-row blocks
// against a fixed threshold and comes back at the first block with a row
// that reaches it, or where the stop rule fires. Rows it passes over score
// under the threshold, so offering them would change nothing; the flagged
// ones are offered here, in order, and the sink decides ties and exclusion
// and moves the threshold before the kernel resumes. Matrix.ScanTopK
// keeps the portable dots, so comparing the two scans checks the kernel as
// well as the order.
func (r *Ranked) scanI8(qr Query, qnorm float64, lo, hi int, excluded func(int) bool, t *metrics.TopK) int {
	m, k := &r.perm, r.Cols
	sk := metrics.NewSink(t, excluded)
	xs := float64(qr.xscale)
	p, end := lo, lo+(hi-lo)&^3
	for p < end {
		b, mask, sums := blocksI8(qr.xq, m.I8[p*k:end*k], m.Scales[p:end], r.Bound[p:end], xs, qnorm, threshold(&sk))
		p += 4 * b
		if mask == 0 {
			if p < end {
				return p - lo
			}
			break
		}
		for j, s := range sums {
			if mask>>j&1 != 0 {
				sk.Offer(int(r.ID[p+j]), xs*float64(m.Scales[p+j])*float64(s))
			}
		}
		p += 4
	}
	for ; p < hi; p++ {
		if outOfReach(&sk, qnorm, r.Bound[p]) {
			return p - lo
		}
		sk.Offer(int(r.ID[p]), xs*float64(m.Scales[p])*float64(dotI8(qr.xq, m.I8[p*k:])))
	}
	return hi - lo
}

// blocksI8Portable is the int8 scan kernel's contract, in Go: the binding
// on builds without assembly and the oracle the assembly is tested
// against. It walks the 4-row blocks of rows (row i at rows[i·k:], k =
// len(xq); block b is rows 4b…4b+3, their scales and bounds) and, per
// block, first applies the stop rule to the block's first bound — if
// float64(qnorm·bound) + 2⁻¹²⁶ < thr it returns b with an empty mask —
// then computes the four exact int32 dots and flags row j when its score
// xs·scale·sum, rounded as Go rounds that expression, is not less than thr.
// It returns the first block with a flagged row, with bit j of mask set for
// each flagged row and the four sums; after the last block it returns
// len(scales)/4 and an empty mask. Sums are zero unless mask is not.
func blocksI8Portable(xq, rows []int8, scales, bounds []float32, xs, qnorm, thr float64) (b, mask int, sums [4]int32) {
	k := len(xq)
	for b = 0; b < len(scales)/4; b++ {
		p := 4 * b
		if float64(qnorm*float64(bounds[p]))+scoreFloor < thr {
			return b, 0, [4]int32{}
		}
		s0, s1, s2, s3 := dot4I8Portable(xq, rows[p*k:], k)
		sums = [4]int32{s0, s1, s2, s3}
		for j, s := range sums {
			if !(xs*float64(scales[p+j])*float64(s) < thr) {
				mask |= 1 << j
			}
		}
		if mask != 0 {
			return b, mask, sums
		}
	}
	return b, 0, [4]int32{}
}

// scanF16 is ScanTopK's fp16 loop.
func (r *Ranked) scanF16(qr Query, qnorm float64, lo, hi int, excluded func(int) bool, t *metrics.TopK) int {
	m, k := &r.perm, r.Cols
	sk := metrics.NewSink(t, excluded)
	p := lo
	for ; p+4 <= hi; p += 4 {
		if outOfReach(&sk, qnorm, r.Bound[p]) {
			return p - lo
		}
		s0, s1, s2, s3 := dot4F16(qr.x, m.F16[p*k:], k)
		sk.Offer(int(r.ID[p]), float64(s0*m.Scales[p]))
		sk.Offer(int(r.ID[p+1]), float64(s1*m.Scales[p+1]))
		sk.Offer(int(r.ID[p+2]), float64(s2*m.Scales[p+2]))
		sk.Offer(int(r.ID[p+3]), float64(s3*m.Scales[p+3]))
	}
	for ; p < hi; p++ {
		if outOfReach(&sk, qnorm, r.Bound[p]) {
			return p - lo
		}
		sk.Offer(int(r.ID[p]), float64(dotF16(qr.x, m.F16[p*k:])*m.Scales[p]))
	}
	return hi - lo
}

// TopN scans the whole matrix single-threaded and returns the n strongest
// rows, strongest first, with the number of rows it scored — item for item
// and score for score what Matrix.TopN returns on the source matrix.
func (r *Ranked) TopN(x []float32, excluded func(int) bool, n int) ([]metrics.Scored, int) {
	if n <= 0 || r.Rows == 0 {
		return nil, 0
	}
	t := metrics.NewTopK(n)
	scored := r.ScanTopK(r.Prepare(x), 0, r.Rows, excluded, t)
	return t.Drain(), scored
}
