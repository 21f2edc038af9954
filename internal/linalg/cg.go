package linalg

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the conjugate-gradient row solver: the alternative S3
// the rusket exemplar ships as cg_iters=3. Instead of assembling the k×k
// normal matrix (|Ω|·k² work for the implicit corrections) and factoring it
// (k³/6), CG only ever applies it — and the application can stay implicit:
//
//	A·p = G·p + Σ_z w_z · f_z (f_zᵀ p) + λ·p
//
// costs k² + |Ω|·k per iteration, so a handful of iterations beats the
// direct solve whenever |Ω|·k² dominates, i.e. for large k. Warm-started
// from the previous iteration's factors, 2–3 iterations track the direct
// solution closely (the equivalence suite pins the tolerance).

// ErrCGBreakdown reports that conjugate gradient hit a non-positive or
// non-finite curvature pᵀAp — the system is not (numerically) positive
// definite, CG's requirement. The caller falls back to assembling the full
// system and climbing the direct-solver recovery ladder.
var ErrCGBreakdown = errors.New("linalg: conjugate gradient breakdown")

// cgResidualFloor stops iterating once the squared residual is exactly
// negligible — the warm start already solved the system (cold rows with
// no observations, or a converged run's late iterations).
const cgResidualFloor = 1e-30

// CGSystem describes the row normal matrix A without materializing it:
// an optional shared dense base G (the implicit mode's FᵀF), the gathered
// factor rows as rank-1 terms, and the ridge λ. With Vals nil the rank-1
// weights are 1 (explicit ALS: A = Σ f_z f_zᵀ + λI); with Vals set they are
// the implicit confidences α·r(z). With Cols nil only G and λ remain — the
// dense form the property tests exercise against Cholesky.
type CGSystem struct {
	G []float32 // optional k×k row-major symmetric base; nil = absent
	// GWide is G widened element by element to float64 (SharedGram.Wide).
	// When set, Apply reads it in place of G and converts nothing inside
	// the matvec; the values are the same, so is the result.
	GWide []float64
	K     int
	Src   []float32 // factor storage; row c is Src[c*k : c*k+k]
	Cols  []int32   // gathered row ids; nil = no rank-1 terms
	Vals  []float32 // per-nonzero ratings; nil = unit weights
	Alpha float32   // confidence scale: weight_z = Alpha·Vals[z]
	Lam   float32   // diagonal ridge λ
	// Wide is at least k floats of scratch for the widened direction. Nil
	// is fine up to k = cgStackK (Apply widens on its own stack); beyond
	// that a system without it allocates per Apply.
	Wide []float64
}

// cgStackK is the largest k Apply widens p for on its own stack.
const cgStackK = 128

// Apply computes out = A·p. p is widened to float64 once; every dot product
// (the rows of G·p and the rank-1 f_z·p) then accumulates in float64, like
// the direct solvers, in DotWide's order — four strided chains reduced as
// (s0+s1)+(s2+s3) — and the rank-1 scatter back to out stays float32. The
// widened-Gram rows and the rank-1 terms run gemvWide and rank1Wide, which
// keep that order lane for lane (AVX on an amd64 CPU that has it, the
// DotWide loops elsewhere: see wide.go); a float32 G goes through DotWide
// itself. Sequential and deterministic — CG results are worker-count
// invariant by construction.
func (s *CGSystem) Apply(p, out []float32) {
	k := s.K
	switch {
	case len(s.Wide) >= k:
		s.apply(p[:k], out[:k], s.Wide[:k])
	case k <= cgStackK:
		var w [cgStackK]float64
		s.apply(p[:k], out[:k], w[:k])
	default:
		s.apply(p[:k], out[:k], make([]float64, k))
	}
}

func (s *CGSystem) apply(p, out []float32, w []float64) {
	k := len(w)
	for i, v := range p {
		w[i] = float64(v)
	}
	lam := float64(s.Lam)
	switch {
	case s.GWide != nil:
		gemvWide(s.GWide, w, lam, out)
	case s.G != nil:
		for i := range out {
			out[i] = float32(lam*w[i] + DotWide(s.G[i*k:i*k+k], w))
		}
	default:
		for i := range out {
			out[i] = float32(lam * w[i])
		}
	}
	for z, c := range s.Cols {
		rank1Wide(s.Src[int(c)*k:int(c)*k+k], w, s.weight(z), out)
	}
}

// weight is rank-1 term z's weight: 1 for explicit ALS, the confidence
// α·r(z) for implicit.
func (s *CGSystem) weight(z int) float64 {
	if s.Vals == nil {
		return 1
	}
	return float64(s.Alpha) * float64(s.Vals[z])
}

// CGSolve runs at most iters conjugate-gradient steps on A·x = b, updating
// x in place from its warm-start value. r, p, ap are caller scratch of at
// least k floats each, so a warmed worker solves without allocating. On
// breakdown (non-SPD curvature or a non-finite residual) x holds the last
// finite iterate and a typed ErrCGBreakdown is returned; CG never emits
// NaN — the guard ladder handles the row from the assembled system instead.
func CGSolve(sys *CGSystem, b, x []float32, iters int, r, p, ap []float32) error {
	k := sys.K
	b, x = b[:k], x[:k]
	r, p, ap = r[:k], p[:k], ap[:k]
	sys.Apply(x, ap)
	for i := range r {
		r[i] = b[i] - ap[i]
	}
	copy(p, r)
	rs := Dot(r, r)
	if math.IsNaN(rs) || math.IsInf(rs, 0) {
		return fmt.Errorf("%w: non-finite initial residual", ErrCGBreakdown)
	}
	for it := 0; it < iters; it++ {
		if rs <= cgResidualFloor {
			return nil
		}
		sys.Apply(p, ap)
		pap := Dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) || math.IsInf(pap, 0) {
			return fmt.Errorf("%w: curvature pᵀAp = %g at iteration %d", ErrCGBreakdown, pap, it)
		}
		alpha := float32(rs / pap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := Dot(r, r)
		if math.IsNaN(rsNew) || math.IsInf(rsNew, 0) {
			return fmt.Errorf("%w: non-finite residual at iteration %d", ErrCGBreakdown, it)
		}
		beta := float32(rsNew / rs)
		rs = rsNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return nil
}
