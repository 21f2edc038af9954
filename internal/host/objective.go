package host

import (
	"strconv"

	"repro/internal/linalg"
	"repro/internal/rtrace"
)

// objective evaluates the training objective right after side s was solved,
// as a pass over s on the same schedule and workers that solved it: the
// paper's Eq. 2 for explicit runs, the Hu et al. confidence-weighted
// objective for implicit ones (the watchdog, early stopping and TrackLoss
// all read it, so divergence detection stays meaningful across modes).
//
// Each row of s writes its share — its data term and its own ridge term —
// to terms; the shares are then added up serially in row order, so the
// value does not depend on the worker count or on which worker took which
// chunk. Implicit mode's all-items baseline Σ(x·y)² over every (row of s,
// row of the fixed factor) pair is no row's share: it is the Frobenius
// product ⟨SᵀS, FᵀF⟩ of the two factors' float64 Grams, k² multiply-adds.
// FᵀF is what the pool took to solve s; SᵀS is computed here, on the pool,
// and is the Gram the next half starts from (gramOf; a caller that wrote a
// factor behind the pool's back must mark its Gram stale first). The fixed
// side's ridge term, O(rows·k) against the pass's O(nnz·k), is added
// serially. metrics.RegularizedLoss and metrics.ImplicitLoss are the serial
// oracles the tests hold this to.
//
// A watched run reports the value to the recorder and, under a live trace,
// times the evaluation as an "objective" span.
func (p *workerPool) objective(s, fixed halfSide, terms []float64) float64 {
	ctx := p.trace
	var span *rtrace.Span
	if p.trace != nil {
		ctx, span = rtrace.StartChild(p.trace, "objective")
	}
	terms = terms[:s.r.NumRows]
	// A pass without a row that can fail: do has no error to return.
	_ = p.do(&halfJob{halfSide: s, terms: terms})
	var sum float64
	for _, t := range terms {
		sum += t
	}
	if p.grams[0].SharedGram != nil {
		gs, _ := p.gramOf(ctx, &p.grams[gramIdx(!s.xHalf)], s.out)
		gf, _ := p.gramOf(ctx, &p.grams[gramIdx(s.xHalf)], s.fixed)
		sum += gs.Frob(gf)
	}
	kn := p.kernel
	var reg float64
	for u := 0; u < fixed.r.NumRows; u++ {
		if w := kn.ridgeCount(fixed.r.RowNNZ(u)); w != 0 {
			reg += w * linalg.Nrm2Sq(fixed.out.Row(u))
		}
	}
	loss := sum + float64(kn.lambda)*reg
	p.obs.RecordLoss(loss)
	if span != nil {
		span.SetAttr("loss", strconv.FormatFloat(loss, 'g', -1, 64))
		span.End()
	}
	return loss
}

// ridgeCount is how many times λ‖f‖² enters the objective for a factor row
// with n ratings: once for every row in implicit mode, n times under
// ALS-WR's weighted λ, and once for a rated row (never for an unrated one)
// under the paper's plain λ.
func (kn *rowKernel) ridgeCount(n int) float64 {
	switch {
	case kn.conf != nil:
		return 1
	case kn.weighted:
		return float64(n)
	case n > 0:
		return 1
	}
	return 0
}

// rowObjective is row u's share of the objective: its squared errors
// (explicit) or the observed corrections c(1−s)² − s² to the all-items
// baseline (implicit), plus its own ridge term. The row is widened once and
// every dot product accumulates in float64. Like updateRow it allocates
// nothing on a warmed workerState.
func (kn *rowKernel) rowObjective(job *halfJob, u int, ws *workerState) float64 {
	k := kn.k
	cols, vals := job.r.Row(u)
	w := ws.wide
	for i, v := range job.out.Row(u) {
		w[i] = float64(v)
	}
	src := job.fixed.Data
	var t float64
	if kn.conf != nil {
		alpha := float64(kn.alpha)
		for z, c := range cols {
			s := linalg.DotWide(src[int(c)*k:int(c)*k+k], w)
			d := 1 - s
			t += (1+alpha*float64(vals[z]))*d*d - s*s
		}
	} else {
		for z, c := range cols {
			d := linalg.DotWide(src[int(c)*k:int(c)*k+k], w) - float64(vals[z])
			t += d * d
		}
	}
	if rc := kn.ridgeCount(len(cols)); rc != 0 {
		t += float64(kn.lambda) * rc * linalg.DotWide(w, w)
	}
	return t
}
