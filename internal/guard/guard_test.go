package guard

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/e2e"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func TestParseChaosRoundTrip(t *testing.T) {
	c, err := ParseChaos("nan=2,inf=1,huge=3,gram=4,fail=5,blowup=2,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if c.NaN != 2 || c.Inf != 1 || c.Huge != 3 || c.GramRows != 4 || c.FailRows != 5 || c.BlowUpIter != 2 || c.Seed != 9 {
		t.Fatalf("parsed %+v", c)
	}
	if got := c.String(); got != "nan=2,inf=1,huge=3,gram=4,fail=5,blowup=2,seed=9" {
		t.Fatalf("String() = %q", got)
	}
	// Defaults: seed 1, everything else off.
	c, err = ParseChaos("gram=1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 1 || !c.Active() {
		t.Fatalf("parsed %+v", c)
	}
	for _, bad := range []string{"gram", "gram=x", "gram=-1", "bogus=1"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

func TestChaosBindDisjointAndDeterministic(t *testing.T) {
	a := &Chaos{Seed: 5, GramRows: 10, FailRows: 10}
	a.Bind(64)
	b := &Chaos{Seed: 5, GramRows: 10, FailRows: 10}
	b.Bind(64)
	ga, gb := gramRows(a), gramRows(b)
	if len(ga) != 10 || len(gb) != 10 {
		t.Fatalf("bound %d/%d gram rows, want 10", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("same seed bound different rows: %v vs %v", ga, gb)
		}
	}
	for _, r := range ga {
		if a.FailSolve(1, r, true) {
			t.Fatalf("row %d carries both gram and fail faults", r)
		}
	}
	// A different seed picks a different set (overwhelmingly likely).
	c := &Chaos{Seed: 6, GramRows: 10, FailRows: 10}
	c.Bind(64)
	same := true
	for i, r := range gramRows(c) {
		if r != ga[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds bound identical row sets")
	}
}

func TestChaosCorruptMatrixDeterministic(t *testing.T) {
	build := func() *sparse.Matrix {
		coo := sparse.NewCOO(20, 15)
		for u := 0; u < 20; u++ {
			for j := 0; j < 5; j++ {
				coo.Append(u, (u+j*3)%15, float32(1+(u+j)%5))
			}
		}
		mx, err := sparse.NewMatrix(coo)
		if err != nil {
			t.Fatal(err)
		}
		return mx
	}
	c := &Chaos{Seed: 3, NaN: 2, Inf: 2, Huge: 1}
	m1, err := c.CorruptMatrix(build())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.CorruptMatrix(build())
	if err != nil {
		t.Fatal(err)
	}
	var nans, infs, huges int
	for i, v := range m1.R.Val {
		if v != m2.R.Val[i] && !(math.IsNaN(float64(v)) && math.IsNaN(float64(m2.R.Val[i]))) {
			t.Fatalf("corruption not deterministic at %d: %g vs %g", i, v, m2.R.Val[i])
		}
		switch v64 := float64(v); {
		case math.IsNaN(v64):
			nans++
		case math.IsInf(v64, 0):
			infs++
		case v == 1e30:
			huges++
		}
	}
	if nans != 2 || infs != 2 || huges != 1 {
		t.Fatalf("planted nan=%d inf=%d huge=%d, want 2/2/1", nans, infs, huges)
	}
	// Both sparse views must carry the same corruption.
	csum := 0
	for _, v := range m1.C.Val {
		if v64 := float64(v); math.IsNaN(v64) || math.IsInf(v64, 0) || v == 1e30 {
			csum++
		}
	}
	if csum != 5 {
		t.Fatalf("CSC view carries %d corrupt values, want 5", csum)
	}
	// Asking for more corruption than there are ratings is an error.
	big := &Chaos{Seed: 1, NaN: 1000}
	if _, err := big.CorruptMatrix(build()); err == nil {
		t.Fatal("oversized corruption accepted")
	}
}

func TestChaosBlowUpOneShot(t *testing.T) {
	c := &Chaos{BlowUpIter: 2}
	if c.BlowUp(1) {
		t.Fatal("fired at the wrong iteration")
	}
	if !c.BlowUp(2) {
		t.Fatal("did not fire at its iteration")
	}
	// The post-rollback replay of the same iteration must stay clean.
	if c.BlowUp(2) {
		t.Fatal("fired twice")
	}
	var nilChaos *Chaos
	if nilChaos.BlowUp(2) || nilChaos.CorruptGram(1, 0, true) || nilChaos.FailSolve(1, 0, true) || nilChaos.Active() {
		t.Fatal("nil Chaos is not inert")
	}
}

func TestSanitizeMatrix(t *testing.T) {
	coo := sparse.NewCOO(3, 4)
	coo.Append(0, 0, 4)
	coo.Append(0, 1, float32(math.NaN()))
	coo.Append(1, 2, float32(math.Inf(-1)))
	coo.Append(2, 3, 2e7)
	coo.Append(2, 0, -3)
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	g := New(Policy{})
	if fixed := g.SanitizeMatrix(mx); fixed != 3 {
		t.Fatalf("fixed %d, want 3", fixed)
	}
	for _, vals := range [][]float32{mx.R.Val, mx.C.Val} {
		for _, v := range vals {
			if v64 := float64(v); math.IsNaN(v64) || math.IsInf(v64, 0) || v > DefaultMaxAbsRating || v < -DefaultMaxAbsRating {
				t.Fatalf("value %g survived sanitizing", v)
			}
		}
	}
	if g.Sanitized(SanitizedNaN) != 1 || g.Sanitized(SanitizedInf) != 1 || g.Sanitized(SanitizedHuge) != 1 {
		t.Fatalf("counts nan=%d inf=%d huge=%d", g.Sanitized(SanitizedNaN), g.Sanitized(SanitizedInf), g.Sanitized(SanitizedHuge))
	}
	// Healthy values are untouched.
	found := map[float32]bool{}
	for _, v := range mx.R.Val {
		found[v] = true
	}
	if !found[4] || !found[-3] {
		t.Fatalf("healthy ratings disturbed: %v", mx.R.Val)
	}
}

func TestCheckIteration(t *testing.T) {
	ok := []float32{1, 2, 3}
	bad := []float32{1, float32(math.NaN())}

	g := New(Policy{})
	g.SetLossScale(100)
	if err := g.CheckIteration(1, ok, ok, 50); err != nil {
		t.Fatalf("healthy iteration rejected: %v", err)
	}
	if err := g.CheckIteration(2, bad, ok, 40); err == nil {
		t.Fatal("NaN factors accepted")
	} else {
		var de *DivergedError
		if !errors.As(err, &de) || de.Reason != "non-finite factors" || !errors.Is(err, ErrDiverged) {
			t.Fatalf("wrong error: %v", err)
		}
	}
	if err := g.CheckIteration(2, ok, ok, math.Inf(1)); err == nil {
		t.Fatal("Inf loss accepted")
	}
	// 50 is the best so far; a 10× jump trips the watchdog, smaller doesn't.
	if err := g.CheckIteration(2, ok, ok, 499); err != nil {
		t.Fatalf("sub-threshold loss rejected: %v", err)
	}
	if err := g.CheckIteration(3, ok, ok, 501); err == nil {
		t.Fatal("loss blow-up accepted")
	} else if !strings.Contains(err.Error(), "blow-up") {
		t.Fatalf("wrong reason: %v", err)
	}

	// Near an exact fit, large RATIOS of tiny losses are float noise, not
	// divergence: the Σr² floor must absorb them.
	g2 := New(Policy{})
	g2.SetLossScale(100)
	if err := g2.CheckIteration(1, ok, ok, 1e-10); err != nil {
		t.Fatal(err)
	}
	if err := g2.CheckIteration(2, ok, ok, 1e-6); err != nil {
		t.Fatalf("noise-scale jump tripped the watchdog: %v", err)
	}
	// ... but a jump back to data scale is still caught.
	if err := g2.CheckIteration(3, ok, ok, 1e4); err == nil {
		t.Fatal("data-scale blow-up accepted near an exact fit")
	}
}

func TestGuardMetricsAndSummary(t *testing.T) {
	g := New(Policy{})
	if g.Summary() != "" {
		t.Fatalf("idle guard summary = %q", g.Summary())
	}
	g.SetVariant("tb+fus")
	g.Recovered(RungJitter2)
	g.Recovered(RungJitter2)
	g.Recovered(RungSkip)
	g.NoteRollback()
	reg := obs.NewRegistry()
	g.Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if _, err := e2e.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("guard metrics do not validate: %v\n%s", err, body)
	}
	for _, want := range []string{
		`als_solver_recoveries_total{rung="jitter2",variant="tb+fus"} 2`,
		`als_solver_recoveries_total{rung="skip",variant="tb+fus"} 1`,
		`als_solver_recoveries_total{rung="ldl",variant="tb+fus"} 0`,
		"als_guard_rollbacks_total 1",
		`als_ratings_sanitized_total{kind="nan"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	sum := g.Summary()
	for _, want := range []string{"3 row solves", "jitter2=2", "skip=1", "1 rollbacks"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
}

func TestRowErrorFormatting(t *testing.T) {
	e := &RowError{Row: 7, Omega: 3, Err: ErrForcedFailure}
	if s := e.Error(); !strings.Contains(s, "row 7") || strings.Contains(s, "iteration") {
		t.Fatalf("unannotated error = %q", s)
	}
	e.Iteration = 4
	if s := e.Error(); !strings.Contains(s, "iteration 4") || !strings.Contains(s, "row 7") {
		t.Fatalf("annotated error = %q", s)
	}
	if !errors.Is(e, ErrForcedFailure) {
		t.Fatal("RowError does not unwrap")
	}
}

// gramRows returns the bound Gram-corruption rows in ascending order.
func gramRows(c *Chaos) []int {
	rows := make([]int, 0, len(c.gram))
	for r := range c.gram {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return rows
}
