package guard

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/sparse"
)

// Chaos is the deterministic numerical-fault injector: the counterpart of
// checkpoint.Faults for the numeric domain. Everything it does is a pure
// function of Seed and the configured counts, so a poisoned run is exactly
// reproducible — the property the chaos-smoke lane asserts. Fault classes:
//
//   - rating corruption (CorruptMatrix): NaN, ±Inf and absurdly large
//     values planted at seeded positions before training;
//   - Gram corruption (CorruptGram): zero the Gram diagonal of chosen rows
//     in the first X half-iteration, making the system exactly singular so
//     Cholesky fails and the recovery ladder has to climb;
//   - forced solver failures (FailSolve): chosen rows fail outright with
//     ErrForcedFailure before any factorization runs and through every
//     recovery rung, driving the ladder to the skip rung;
//   - a loss blow-up (BlowUp/CorruptFactors): at the chosen iteration the
//     X factors are scaled by BlowUpScale once, tripping the divergence
//     watchdog into a rollback.
type Chaos struct {
	Seed int64

	NaN  int // ratings replaced with NaN
	Inf  int // ratings replaced with ±Inf
	Huge int // ratings replaced with ±1e30

	GramRows int // rows whose Gram diagonal is zeroed (first X half)
	FailRows int // rows whose solve fails outright (first X half)

	BlowUpIter  int     // iteration whose factors blow up; 0 disables
	BlowUpScale float32 // factor scale at blow-up (default 1e6)

	// FailFunc, when set, replaces the seeded FailRows selection — a test
	// hook for forcing failures at exact (iteration, row, half) points.
	FailFunc func(iter, row int, xHalf bool) bool

	gram  map[int]bool
	fail  map[int]bool
	blown atomic.Bool
}

// ParseChaos parses an alstrain -chaos spec: comma-separated key=value
// pairs from nan, inf, huge, gram, fail, blowup, seed — e.g.
// "nan=2,gram=3,blowup=2,seed=7". Unknown keys are errors.
func ParseChaos(spec string) (*Chaos, error) {
	c := &Chaos{Seed: 1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("guard: chaos spec %q: want key=value", part)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("guard: chaos spec %q: bad value", part)
		}
		switch key {
		case "nan":
			c.NaN = int(n)
		case "inf":
			c.Inf = int(n)
		case "huge":
			c.Huge = int(n)
		case "gram":
			c.GramRows = int(n)
		case "fail":
			c.FailRows = int(n)
		case "blowup":
			c.BlowUpIter = int(n)
		case "seed":
			c.Seed = n
		default:
			return nil, fmt.Errorf("guard: chaos spec: unknown key %q", key)
		}
	}
	return c, nil
}

// String renders the spec back in canonical form (for run banners).
func (c *Chaos) String() string {
	return fmt.Sprintf("nan=%d,inf=%d,huge=%d,gram=%d,fail=%d,blowup=%d,seed=%d",
		c.NaN, c.Inf, c.Huge, c.GramRows, c.FailRows, c.BlowUpIter, c.Seed)
}

// Bind fixes the Gram-corruption and forced-failure row sets for a matrix
// with the given number of rows. The two sets are drawn disjoint from one
// seeded shuffle so one row never carries both faults (which would make
// attribution in the rung counters ambiguous).
func (c *Chaos) Bind(rows int) {
	rng := rand.New(rand.NewSource(c.Seed))
	perm := rng.Perm(rows)
	ng := min(c.GramRows, rows)
	nf := min(c.FailRows, rows-ng)
	c.gram = make(map[int]bool, ng)
	c.fail = make(map[int]bool, nf)
	for _, r := range perm[:ng] {
		c.gram[r] = true
	}
	for _, r := range perm[ng : ng+nf] {
		c.fail[r] = true
	}
}

// CorruptMatrix plants the configured NaN/Inf/huge ratings at seeded entry
// positions and rebuilds both sparse views so the corruption is consistent
// across the CSR and CSC value arrays, exactly as corrupt input data would
// arrive. The input matrix is not modified.
func (c *Chaos) CorruptMatrix(mx *sparse.Matrix) (*sparse.Matrix, error) {
	total := c.NaN + c.Inf + c.Huge
	if total == 0 {
		return mx, nil
	}
	coo := mx.R.ToCOO()
	nnz := coo.NNZ()
	if total > nnz {
		return nil, fmt.Errorf("guard: chaos wants %d corrupt ratings but matrix has %d", total, nnz)
	}
	rng := rand.New(rand.NewSource(c.Seed + 1))
	perm := rng.Perm(nnz)[:total]
	for i, p := range perm {
		switch {
		case i < c.NaN:
			coo.Val[p] = float32(math.NaN())
		case i < c.NaN+c.Inf:
			coo.Val[p] = float32(math.Inf(1 - 2*(i%2))) // alternate ±Inf
		default:
			coo.Val[p] = 1e30
		}
	}
	return sparse.NewMatrix(coo)
}

// CorruptGram reports whether the Gram diagonal of this row update should
// be zeroed. Faults fire only in the first X half-iteration: once is
// enough to force the ladder, and keeping later iterations clean lets the
// run converge. Nil-safe.
func (c *Chaos) CorruptGram(iter, row int, xHalf bool) bool {
	if c == nil || !xHalf || iter != 1 {
		return false
	}
	return c.gram[row]
}

// FailSolve reports whether this row's solve should fail outright with
// ErrForcedFailure. FailFunc, when set, takes full control. Nil-safe.
func (c *Chaos) FailSolve(iter, row int, xHalf bool) bool {
	if c == nil {
		return false
	}
	if c.FailFunc != nil {
		return c.FailFunc(iter, row, xHalf)
	}
	if !xHalf || iter != 1 {
		return false
	}
	return c.fail[row]
}

// BlowUp reports whether this iteration's factors should blow up. It fires
// at most once per process so the post-rollback replay of the same
// iteration is not re-poisoned. Nil-safe.
func (c *Chaos) BlowUp(iter int) bool {
	if c == nil || c.BlowUpIter == 0 || iter != c.BlowUpIter {
		return false
	}
	return c.blown.CompareAndSwap(false, true)
}

// CorruptFactors scales every factor entry by BlowUpScale — finite but
// enormous, so the loss explodes without tripping the NaN checks first.
func (c *Chaos) CorruptFactors(x []float32) {
	scale := c.BlowUpScale
	if scale == 0 {
		scale = 1e6
	}
	for i := range x {
		x[i] *= scale
	}
}

// Active reports whether any fault class is configured.
func (c *Chaos) Active() bool {
	if c == nil {
		return false
	}
	return c.NaN+c.Inf+c.Huge+c.GramRows+c.FailRows+c.BlowUpIter > 0 || c.FailFunc != nil
}
