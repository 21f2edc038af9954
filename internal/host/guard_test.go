package host

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/sparse"
	"repro/internal/variant"
)

// ladderMatrix builds a matrix whose every row has fewer ratings than k, so
// λ = 0 makes each normal matrix exactly rank-deficient — the natural
// (non-injected) trigger for the recovery ladder.
func ladderMatrix(t *testing.T) *sparse.Matrix {
	t.Helper()
	coo := sparse.NewCOO(12, 9)
	for u := 0; u < 12; u++ {
		for j := 0; j < 3; j++ {
			coo.Append(u, (u+j*2)%9, float32(1+(u+j)%5))
		}
	}
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// TestLadderJitterRescuesSingular: λ = 0 with omega < k is singular, but the
// Gram matrix is PSD, so the first ridge-jitter rung must rescue every row —
// no LDL, no skips, finite factors.
func TestLadderJitterRescuesSingular(t *testing.T) {
	mx := ladderMatrix(t)
	g := guard.New(guard.Policy{})
	res, err := Train(mx, Config{K: 6, Lambda: 0, Iterations: 2, Seed: 3, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	if !guard.FiniteVec(res.X.Data) || !guard.FiniteVec(res.Y.Data) {
		t.Fatal("guarded λ=0 run produced non-finite factors")
	}
	if n := g.Recoveries(guard.RungJitter2); n == 0 {
		t.Fatal("jitter2 rung never fired on a singular system")
	}
	if n := g.Recoveries(guard.RungSkip); n != 0 {
		t.Fatalf("%d rows skipped; jitter should have rescued all", n)
	}
}

// TestLadderStrictFailsFast: the same singular system under Strict must die
// with a typed RowError instead of climbing the ladder.
func TestLadderStrictFailsFast(t *testing.T) {
	mx := ladderMatrix(t)
	g := guard.New(guard.Policy{Strict: true})
	_, err := Train(mx, Config{K: 6, Lambda: 0, Iterations: 2, Seed: 3, Guard: g})
	if err == nil {
		t.Skip("LDL solved the singular system exactly; nothing to assert")
	}
	var re *guard.RowError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a guard.RowError", err)
	}
	if re.Iteration != 1 {
		t.Fatalf("RowError.Iteration = %d, want 1", re.Iteration)
	}
	if g.TotalRecoveries() != 0 {
		t.Fatal("strict mode climbed the ladder")
	}
}

// TestForcedFailureSkipsRow: a chaos-forced solver failure must exhaust the
// ladder and land on the skip rung, leaving that row's factors at their
// last-good value (zero, in iteration 1) while the run completes.
func TestForcedFailureSkipsRow(t *testing.T) {
	mx := ladderMatrix(t)
	const victim = 5
	g := guard.New(guard.Policy{})
	g.Chaos = &guard.Chaos{
		FailFunc: func(iter, row int, xHalf bool) bool {
			return iter == 1 && xHalf && row == victim
		},
	}
	res, err := Train(mx, Config{K: 3, Lambda: 0.1, Iterations: 1, Seed: 3, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Recoveries(guard.RungSkip); n != 1 {
		t.Fatalf("skip rung fired %d times, want 1", n)
	}
	for _, v := range res.X.Row(victim) {
		if v != 0 {
			t.Fatalf("skipped row %d got factor %g, want last-good (zero)", victim, v)
		}
	}
	// Strict mode must turn the same injection into a typed fail-fast error.
	gs := guard.New(guard.Policy{Strict: true})
	gs.Chaos = &guard.Chaos{FailFunc: g.Chaos.FailFunc}
	_, err = Train(mx, Config{K: 3, Lambda: 0.1, Iterations: 1, Seed: 3, Guard: gs})
	if !errors.Is(err, guard.ErrForcedFailure) {
		t.Fatalf("strict error = %v, want ErrForcedFailure", err)
	}
	var re *guard.RowError
	if !errors.As(err, &re) || re.Row != victim {
		t.Fatalf("strict error %v does not name row %d", err, victim)
	}
}

// TestGuardRecoveryAllVariants: every code variant's and training mode's
// recovery path must produce finite factors and count its rescues under the
// chaos Gram-zeroing fault (which makes the system exactly singular after λ
// was added). The matrix-free modes (CG, block sweeps) never assemble a Gram
// to poison, so the fault must reach the assembled system they fall through
// to and be repaired by the same ladder.
func TestGuardRecoveryAllVariants(t *testing.T) {
	mx := smallDataset(t, 31)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Flat: true}},
		{"tb", Config{}},
		{"tb+reg+loc", Config{Variant: variant.Options{Register: true, Local: true}}},
		{"tb+fus+vec", Config{Variant: variant.Options{Fused: true, Vector: true}}},
		{"explicit cg", Config{Solver: SolverCG}},
		{"implicit direct", Config{Implicit: true}},
		{"implicit cg", Config{Implicit: true, Solver: SolverCG}},
		{"implicit block", Config{Implicit: true, BlockSize: 3}},
	}
	for _, tc := range cases {
		g := guard.New(guard.Policy{})
		ch := &guard.Chaos{Seed: 11, GramRows: 4}
		ch.Bind(mx.Rows())
		g.Chaos = ch
		cfg := tc.cfg
		cfg.K, cfg.Lambda, cfg.Iterations, cfg.Seed, cfg.Guard = 8, 0.1, 2, 7, g
		res, err := Train(mx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !guard.FiniteVec(res.X.Data) || !guard.FiniteVec(res.Y.Data) {
			t.Fatalf("%s: non-finite factors after recovery", tc.name)
		}
		if poisoned := len(gramRows(ch, mx.Rows())); g.TotalRecoveries() < int64(poisoned) {
			t.Fatalf("%s: %d recoveries for %d poisoned rows", tc.name, g.TotalRecoveries(), poisoned)
		}
	}
}

// TestForcedFailureBeatsGramPoison: Chaos.Bind keeps its two fault sets
// disjoint, but FailFunc can put both faults on one row. In every mode that
// row rides to the skip rung — a forced failure fails every repair rung —
// while the merely poisoned rows are still rescued by the ladder (λ = 1 so
// the jitter rungs outweigh the shared Gram's off-diagonals in implicit mode
// too; at λ = 0.1 every poisoned implicit row is skipped and the case would
// prove nothing).
func TestForcedFailureBeatsGramPoison(t *testing.T) {
	mx := smallDataset(t, 31)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tb", Config{}},
		{"explicit cg", Config{Solver: SolverCG}},
		{"implicit direct", Config{Implicit: true}},
		{"implicit cg", Config{Implicit: true, Solver: SolverCG}},
		{"implicit block", Config{Implicit: true, BlockSize: 3}},
	} {
		g := guard.New(guard.Policy{})
		ch := &guard.Chaos{Seed: 11, GramRows: 4}
		ch.Bind(mx.Rows())
		both := gramRows(ch, mx.Rows())[0]
		ch.FailFunc = func(iter, row int, xHalf bool) bool { return iter == 1 && xHalf && row == both }
		g.Chaos = ch
		cfg := tc.cfg
		cfg.K, cfg.Lambda, cfg.Iterations, cfg.Seed, cfg.Guard = 8, 1, 2, 7, g
		if _, err := Train(mx, cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if skip, total := g.Recoveries(guard.RungSkip), g.TotalRecoveries(); skip != 1 || total != 4 {
			t.Errorf("%s: skip rung = %d of %d recoveries, want 1 of 4", tc.name, skip, total)
		}
	}
}

// TestGuardedRowUpdateAllocsZero: an armed (but quiet) guard must not cost
// the hot path its zero-allocation property.
func TestGuardedRowUpdateAllocsZero(t *testing.T) {
	mx := smallDataset(t, 22)
	g := guard.New(guard.Policy{})
	check := func(name string, cfg Config) {
		cfg.Guard = g
		if n := RowUpdateAllocs(mx, cfg); n != 0 {
			t.Errorf("%s with guard armed: %v allocs per row update, want 0", name, n)
		}
	}
	check("flat", Config{K: 10, Lambda: 0.1, Flat: true})
	check("tb", Config{K: 10, Lambda: 0.1})
	check("tb+fus+vec", Config{K: 10, Lambda: 0.1, Variant: variant.Options{Fused: true, Vector: true}})
}

// TestPoolErrorStopsMidChunk: once any worker poisons the half, other
// workers must bail in the middle of their claimed chunk instead of
// finishing it. The chaos FailFunc doubles as a synchronization point: row 0
// (first chunk) fails only after row 4 (second chunk) is underway, and row 4
// holds its chunk open until the error is visible, so the second chunk's
// remaining rows provably run after the error was set — and must be skipped.
func TestPoolErrorStopsMidChunk(t *testing.T) {
	const m, k, chunk = 8, 4, 4
	coo := sparse.NewCOO(m, 6)
	for u := 0; u < m; u++ {
		coo.Append(u, u%6, 3)
		coo.Append(u, (u+2)%6, 4)
	}
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{}) // closed when the second chunk is underway
	errSet := make(chan struct{})  // closed when job.err is visible
	g := guard.New(guard.Policy{Strict: true})
	g.Chaos = &guard.Chaos{
		FailFunc: func(iter, row int, xHalf bool) bool {
			switch row {
			case 0:
				<-started
				return true
			case chunk:
				close(started)
				<-errSet
			}
			return false
		},
	}

	cfg := Config{K: k, Lambda: 0.1, Workers: 2, Guard: g}
	cfg.setDefaults()
	y := InitialY(6, k, 1)
	x := linalg.NewDense(m, k)

	p := newWorkerPool(cfg)
	defer p.close()
	job := &halfJob{halfSide: halfSide{r: mx.R, fixed: y, out: x, xHalf: true, chunk: chunk}, iter: 1}
	job.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.jobs <- job
	}
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for job.err.Load() == nil && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		close(errSet)
	}()
	done := make(chan struct{})
	go func() { job.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("half iteration deadlocked")
	}

	jerr, _ := job.err.Load().(error)
	if !errors.Is(jerr, guard.ErrForcedFailure) {
		t.Fatalf("job error = %v, want ErrForcedFailure", jerr)
	}
	rowNonZero := func(u int) bool {
		for _, v := range x.Row(u) {
			if v != 0 {
				return true
			}
		}
		return false
	}
	if !rowNonZero(chunk) {
		t.Fatalf("row %d (second chunk head) was never updated; choreography broken", chunk)
	}
	for u := chunk + 1; u < m; u++ {
		if rowNonZero(u) {
			t.Fatalf("row %d updated after the half was poisoned; mid-chunk bail missing", u)
		}
	}
}

// TestGuardNilUnchanged: a nil guard must reproduce the unguarded failure
// mode bit for bit — λ=0 singular systems still surface a plain error (or an
// exact LDL solve), never a silent recovery.
func TestGuardNilUnchanged(t *testing.T) {
	mx := ladderMatrix(t)
	res, err := Train(mx, Config{K: 6, Lambda: 0, Iterations: 1, Seed: 3})
	if err != nil {
		var re *guard.RowError
		if errors.As(err, &re) {
			t.Fatalf("nil guard produced a guard.RowError: %v", err)
		}
		return
	}
	for _, v := range res.X.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("nil-guard λ=0 run produced non-finite factors without error")
		}
	}
}

// gramRows lists the rows whose Gram diagonal ch zeroes in the first X
// half-iteration, in ascending order.
func gramRows(ch *guard.Chaos, rows int) []int {
	var out []int
	for r := 0; r < rows; r++ {
		if ch.CorruptGram(1, r, true) {
			out = append(out, r)
		}
	}
	return out
}
