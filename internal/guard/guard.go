// Package guard is the numerical-resilience layer of the reproduction: it
// keeps an ALS run alive through the faults the clean math ignores. The
// paper's Algorithm 1 assumes every per-row normal-equation solve succeeds,
// but in practice the Gram matrix YᵀY+λI goes non-SPD (near-zero-degree
// rows, tiny λ, float32 accumulation) and a single NaN anywhere in the
// ratings poisons both factor matrices. guard answers with three layers:
//
//   - a solver recovery ladder the row-update kernel walks on ErrNotSPD:
//     re-solve with escalating ridge jitter (2λ, then 10λ added to the
//     diagonal), fall back to LDLᵀ, and finally skip the row keeping its
//     last-good factors — each rung counted per variant in
//     als_solver_recoveries_total instead of killing the run;
//   - a divergence watchdog at the iteration boundary: NaN/Inf factors,
//     non-finite loss, or a loss blow-up past divergenceFactor× the best
//     seen so far surfaces a typed DivergedError that the core layer
//     answers by rolling back to the last good checkpoint with escalated
//     λ, bounded by MaxRollbacks;
//   - a data sanitizer that quarantines non-finite and absurd ratings
//     before training (counted in als_ratings_sanitized_total).
//
// Strict mode turns all of it off and preserves fail-fast behavior, with
// typed RowErrors naming the iteration and row that died. The companion
// Chaos injector (chaos.go) deterministically reproduces every fault class
// so the chaos-smoke lane can prove a poisoned run still converges.
package guard

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// Recovery-ladder rungs, in escalation order. Only the rung that rescued a
// row is counted: a row that needed the 10λ jitter counts once under
// jitter10, not under jitter2.
const (
	RungJitter2 = iota // re-solve with 2λ ridge jitter added to the diagonal
	RungJitter10
	RungLDL  // LDLᵀ fallback on the original system
	RungSkip // keep the row's last-good factors and move on
	NumRungs
)

// RungNames are the label values for als_solver_recoveries_total{rung=...}.
var RungNames = [NumRungs]string{"jitter2", "jitter10", "ldl", "skip"}

// JitterMultipliers are the ridge escalation steps of the jitter rungs,
// applied to the row's effective λ (floored at 1e-6 when λ = 0, since
// jittering by a multiple of zero is no jitter at all).
var JitterMultipliers = [2]float32{2, 10}

// MinJitterBase is the λ floor the jitter rungs fall back to for λ = 0 runs.
const MinJitterBase = 1e-6

// divergenceFactor trips the watchdog when the iteration loss exceeds this
// multiple of the best loss so far (ALS loss is monotone per half in exact
// arithmetic, so a 10× jump is pathological).
const divergenceFactor = 10

// LambdaEscalation multiplies λ on every rollback so the re-run is better
// conditioned than the one that diverged.
const LambdaEscalation = 2

// divergenceFloorFrac scales the zero-model loss into the watchdog's noise
// floor (see CheckIteration).
const divergenceFloorFrac = 1e-6

// Sanitizer kinds for als_ratings_sanitized_total{kind=...}.
const (
	SanitizedNaN = iota
	SanitizedInf
	SanitizedHuge
	NumSanitized
)

var sanitizedNames = [NumSanitized]string{"nan", "inf", "huge"}

// DefaultMaxAbsRating is the sanitizer's plausibility bound: ratings with a
// larger magnitude are zeroed (real rating scales top out in single digits;
// a single absurd value dominates the least-squares objective and distorts
// every factor it touches, so clamping is not enough — it must go).
const DefaultMaxAbsRating = 1e6

// ErrDiverged is the sentinel every DivergedError unwraps to; core surfaces
// it once MaxRollbacks is exhausted.
var ErrDiverged = errors.New("guard: training diverged")

// ErrForcedFailure marks a solver failure injected by the chaos harness.
var ErrForcedFailure = errors.New("guard: injected solver failure")

// RowError is the typed strict-mode failure: it names the iteration and row
// whose normal equations could not be solved.
type RowError struct {
	Iteration int // 1-based; 0 = unknown
	Row       int
	Omega     int // the row's rating count
	Err       error
}

func (e *RowError) Error() string {
	if e.Iteration > 0 {
		return fmt.Sprintf("guard: iteration %d, row %d (omega=%d): %v", e.Iteration, e.Row, e.Omega, e.Err)
	}
	return fmt.Sprintf("guard: row %d (omega=%d): %v", e.Row, e.Omega, e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// DivergedError reports the watchdog tripping at an iteration boundary.
type DivergedError struct {
	Iteration int
	Reason    string  // "non-finite factors", "non-finite loss", "loss blow-up"
	Loss      float64 // the offending loss (NaN/Inf for factor faults)
	Best      float64 // best loss seen before this iteration
}

func (e *DivergedError) Error() string {
	return fmt.Sprintf("guard: iteration %d: %s (loss=%g, best=%g)", e.Iteration, e.Reason, e.Loss, e.Best)
}

func (e *DivergedError) Unwrap() error { return ErrDiverged }

// Policy sets the resilience knobs. The zero value means non-strict with
// the defaults New fills in.
type Policy struct {
	// Strict preserves the pre-guard fail-fast behavior: no ladder, no
	// sanitizing, no rollback — the first numerical fault kills the run
	// with a typed RowError/DivergedError.
	Strict bool
	// MaxRollbacks bounds divergence rollbacks before the run surfaces
	// ErrDiverged (default 3).
	MaxRollbacks int
}

// Guard threads one run's resilience policy, live counters and optional
// chaos injection through the training stack. All counter methods are safe
// for concurrent use from the worker pool.
type Guard struct {
	Policy
	// Chaos, when set, injects deterministic numerical faults (see Chaos).
	Chaos *Chaos

	recoveries [NumRungs]atomic.Int64
	rollbacks  atomic.Int64
	sanitized  [NumSanitized]atomic.Int64

	mu      sync.Mutex
	variant string
	best    float64 // best (lowest) iteration loss seen so far
	scale   float64 // Σr², the zero-model loss (sets the blow-up noise floor)
}

// New builds a Guard, filling Policy defaults.
func New(p Policy) *Guard {
	if p.MaxRollbacks <= 0 {
		p.MaxRollbacks = 3
	}
	return &Guard{Policy: p, best: math.Inf(1)}
}

// SetVariant records the resolved code variant for the per-variant
// recovery metric labels. Called by the training loop once the variant is
// known.
func (g *Guard) SetVariant(v string) {
	g.mu.Lock()
	g.variant = v
	g.mu.Unlock()
}

// Recovered counts one row rescued at the given ladder rung.
func (g *Guard) Recovered(rung int) { g.recoveries[rung].Add(1) }

// Recoveries reads one rung's counter.
func (g *Guard) Recoveries(rung int) int64 { return g.recoveries[rung].Load() }

// TotalRecoveries sums the ladder counters.
func (g *Guard) TotalRecoveries() int64 {
	var n int64
	for r := range g.recoveries {
		n += g.recoveries[r].Load()
	}
	return n
}

// NoteRollback counts one divergence rollback.
func (g *Guard) NoteRollback() { g.rollbacks.Add(1) }

// Rollbacks reads the rollback counter.
func (g *Guard) Rollbacks() int64 { return g.rollbacks.Load() }

// Sanitized reads one sanitizer counter.
func (g *Guard) Sanitized(kind int) int64 { return g.sanitized[kind].Load() }

// TotalSanitized sums the sanitizer counters.
func (g *Guard) TotalSanitized() int64 {
	var n int64
	for k := range g.sanitized {
		n += g.sanitized[k].Load()
	}
	return n
}

// CheckIteration is the divergence watchdog, run at each iteration
// boundary with the workers quiescent: it rejects non-finite factors,
// non-finite loss, and a loss more than divergenceFactor× the best seen so
// far. The best-loss floor persists across rollbacks (the Guard outlives
// each host.Train attempt), so a rolled-back run cannot "reset" its own
// blow-up threshold.
func (g *Guard) CheckIteration(it int, x, y []float32, loss float64) error {
	g.mu.Lock()
	best, scale := g.best, g.scale
	g.mu.Unlock()
	if !finiteSlice(x) || !finiteSlice(y) {
		return &DivergedError{Iteration: it, Reason: "non-finite factors", Loss: loss, Best: best}
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return &DivergedError{Iteration: it, Reason: "non-finite loss", Loss: loss, Best: best}
	}
	// A run that converged to an essentially exact fit jitters by large
	// RATIOS of tiny numbers, so the blow-up baseline is floored at a
	// fraction of the zero-model loss Σr² (SetLossScale): only jumps that
	// are large on the problem's own scale count as divergence.
	if floor := scale * divergenceFloorFrac; best < floor {
		best = floor
	}
	if loss > divergenceFactor*best {
		return &DivergedError{Iteration: it, Reason: "loss blow-up", Loss: loss, Best: best}
	}
	g.mu.Lock()
	if loss < g.best {
		g.best = loss
	}
	g.mu.Unlock()
	return nil
}

// SetLossScale records the problem's natural loss magnitude — Σr², the loss
// of an all-zero model — which floors the watchdog's blow-up baseline.
// Called by the training loop before the first iteration.
func (g *Guard) SetLossScale(s float64) {
	g.mu.Lock()
	g.scale = s
	g.mu.Unlock()
}

// SanitizeMatrix quarantines corrupt ratings in place, in both the CSR and
// CSC views (they hold independent value arrays): NaN, ±Inf and magnitudes
// beyond DefaultMaxAbsRating all become 0, removing their pull on the objective
// while keeping the sparsity structure intact. It returns the number of
// ratings touched; counts land in als_ratings_sanitized_total. Strict runs
// skip sanitizing so the fault surfaces where it happens.
func (g *Guard) SanitizeMatrix(mx *sparse.Matrix) int64 {
	fixed := g.sanitizeVals(mx.R.Val, true)
	g.sanitizeVals(mx.C.Val, false)
	return fixed
}

func (g *Guard) sanitizeVals(vals []float32, count bool) int64 {
	const maxAbs = DefaultMaxAbsRating
	var fixed int64
	for i, v := range vals {
		v64 := float64(v)
		switch {
		case math.IsNaN(v64):
			vals[i] = 0
			if count {
				g.sanitized[SanitizedNaN].Add(1)
			}
		case math.IsInf(v64, 0):
			vals[i] = 0
			if count {
				g.sanitized[SanitizedInf].Add(1)
			}
		case v > maxAbs, v < -maxAbs:
			vals[i] = 0
			if count {
				g.sanitized[SanitizedHuge].Add(1)
			}
		default:
			continue
		}
		fixed++
	}
	return fixed
}

// Register mirrors the guard counters into reg as live Prometheus
// collector families, read at scrape time.
func (g *Guard) Register(reg *obs.Registry) {
	reg.Func("als_solver_recoveries_total",
		"Row updates rescued by the solver recovery ladder, by rung (jitter2/jitter10/ldl/skip) and code variant.",
		obs.Counter, []string{"rung", "variant"}, func() []obs.Sample {
			g.mu.Lock()
			variant := g.variant
			g.mu.Unlock()
			samples := make([]obs.Sample, 0, NumRungs)
			for r := 0; r < NumRungs; r++ {
				samples = append(samples, obs.Sample{
					Labels: []string{RungNames[r], variant},
					Value:  float64(g.recoveries[r].Load()),
				})
			}
			return samples
		})
	reg.Func("als_guard_rollbacks_total",
		"Divergence rollbacks performed by the watchdog (checkpoint restore + lambda escalation).",
		obs.Counter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(g.rollbacks.Load())}}
		})
	reg.Func("als_ratings_sanitized_total",
		"Corrupt ratings quarantined before training, by kind (nan/inf/huge).",
		obs.Counter, []string{"kind"}, func() []obs.Sample {
			samples := make([]obs.Sample, 0, NumSanitized)
			for k := 0; k < NumSanitized; k++ {
				samples = append(samples, obs.Sample{
					Labels: []string{sanitizedNames[k]},
					Value:  float64(g.sanitized[k].Load()),
				})
			}
			return samples
		})
}

// Summary renders a one-line human report of what the guard did, or "" if
// it never had to act.
func (g *Guard) Summary() string {
	total := g.TotalRecoveries()
	rb := g.Rollbacks()
	san := g.TotalSanitized()
	if total == 0 && rb == 0 && san == 0 {
		return ""
	}
	s := "recovered " + strconv.FormatInt(total, 10) + " row solves ("
	first := true
	for r := 0; r < NumRungs; r++ {
		if n := g.recoveries[r].Load(); n > 0 {
			if !first {
				s += " "
			}
			s += RungNames[r] + "=" + strconv.FormatInt(n, 10)
			first = false
		}
	}
	s += "), " + strconv.FormatInt(rb, 10) + " rollbacks, sanitized " +
		strconv.FormatInt(san, 10) + " ratings"
	return s
}

// FiniteVec reports whether every element of v is finite. The recovery
// ladder uses it to reject "successful" solves that produced garbage
// (LDLᵀ on an indefinite system can return without error).
func FiniteVec(v []float32) bool { return finiteSlice(v) }

func finiteSlice(v []float32) bool {
	for _, f := range v {
		// A float32 is non-finite iff its exponent bits are all ones;
		// comparing through float64 keeps NaN and ±Inf detection exact.
		f64 := float64(f)
		if math.IsNaN(f64) || math.IsInf(f64, 0) {
			return false
		}
	}
	return true
}
