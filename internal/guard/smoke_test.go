package guard_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/e2e"
)

// chaosSpec plants one NaN, one Inf and one huge rating, zeroes two Gram
// diagonals, forces one solver failure, and blows the loss up at iteration
// 2 — at least one fault from every class the resilience layer handles.
const chaosSpec = "nan=1,inf=1,huge=1,gram=2,fail=1,blowup=2,seed=7"

var trainArgs = []string{
	"-preset", "MVLE", "-scale", "0.002", "-iters", "6", "-k", "8", "-seed", "2017",
}

// TestAlstrainChaosSmoke is the chaos lane CI runs: a fully poisoned
// alstrain run must finish with exit 0, report a train RMSE within 10% of a
// clean run's, expose non-zero recovery/rollback/sanitizer counters on
// /metrics, and be bit-for-bit reproducible. The same chaos under
// -strict-numerics must instead fail fast with an error naming the
// iteration and row.
func TestAlstrainChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain binary")
	}
	dir := t.TempDir()
	bin := e2e.Build(t, "alstrain")

	// Clean baseline: same data, same hyperparameters, no faults.
	cleanRMSE := parseRMSE(t, e2e.Run(t, bin, trainArgs...), "train RMSE:")

	// Poisoned run A with the debug server up so we can scrape the guard
	// counters mid-linger, a checkpoint dir so the blow-up rolls back
	// instead of restarting, and a saved model for the determinism check.
	modelA := filepath.Join(dir, "model-a.bin")
	p := e2e.Start(t, bin, append(append([]string{}, trainArgs...),
		"-chaos", chaosSpec,
		"-checkpoint-dir", filepath.Join(dir, "ckpt-a"),
		"-out", modelA,
		"-debug-addr", "127.0.0.1:0", "-debug-linger", "30s")...)
	base := "http://" + p.WaitLine("debug server listening on http://")
	p.WaitLine("debug server lingering") // the run is finished: the scrape sees all of it
	p.WaitLine("guard: ")
	chaosRMSE := parseRMSE(t, p.Output(), "train RMSE:")

	// The run must have converged despite the poison: finite, and within
	// 10% of the clean baseline.
	if math.IsNaN(chaosRMSE) || math.IsInf(chaosRMSE, 0) {
		t.Fatalf("chaos train RMSE = %g", chaosRMSE)
	}
	if diff := math.Abs(chaosRMSE - cleanRMSE); diff > 0.1*cleanRMSE {
		t.Errorf("chaos RMSE %g vs clean %g: off by more than 10%%", chaosRMSE, cleanRMSE)
	}

	// The guard counters must be visible on /metrics: the ladder fired (the
	// two Gram faults plus the forced failure), the watchdog rolled back
	// once, and the sanitizer fixed the three poisoned ratings.
	m := e2e.Scrape(t, base)
	if n := m.Sum("als_solver_recoveries_total"); n < 3 {
		t.Errorf("als_solver_recoveries_total = %g, want >= 3 (gram=2 + fail=1)", n)
	}
	if n := m.Sum("als_guard_rollbacks_total"); n != 1 {
		t.Errorf("als_guard_rollbacks_total = %g, want 1", n)
	}
	if n := m.Sum("als_ratings_sanitized_total"); n != 3 {
		t.Errorf("als_ratings_sanitized_total = %g, want 3 (nan+inf+huge)", n)
	}

	// Determinism: an identical poisoned run must produce a bit-identical
	// model. (Run B also proves the observability plumbing of run A did not
	// leak into the math.)
	modelB := filepath.Join(dir, "model-b.bin")
	e2e.Run(t, bin, append(append([]string{}, trainArgs...),
		"-chaos", chaosSpec,
		"-checkpoint-dir", filepath.Join(dir, "ckpt-b"),
		"-out", modelB)...)
	a, err := os.ReadFile(modelA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(modelB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two identical chaos runs produced different models")
	}

	// Strict mode with the same poison must die fast, naming the iteration
	// and row of the first unsolvable system.
	strict := e2e.Start(t, bin, append(append([]string{}, trainArgs...), "-strict-numerics", "-chaos", chaosSpec)...)
	if code := strict.Wait(); code <= 0 {
		t.Fatalf("strict chaos run: exit code %d, want a failure of its own:\n%s", code, strict.Output())
	}
	serr := strict.Output()
	if !strings.Contains(serr, "iteration") || !strings.Contains(serr, "row") {
		t.Errorf("strict failure does not name iteration and row: %q", serr)
	}
}

func parseRMSE(t *testing.T, out, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, found := strings.CutPrefix(line, prefix); found {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad RMSE line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %q line in output:\n%s", prefix, out)
	return 0
}
