package obs_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/e2e"
	"repro/internal/obs"
)

// TestAlstrainDebugSmoke is the observability end-to-end check the CI lane
// runs: build alstrain, train one iteration with -debug-addr and the trace
// exports on, scrape /metrics while the server lingers, and hold the output
// to the strict exposition parser. It fails on unparseable exposition
// output, a missing stage/worker metric, or an invalid trace file. The one
// exporter must serve both trainers: a -workers 2 run with -span-trace-out
// alone and a single-process run with -trace-sample 1 -span-trace-out each
// have to leave a Chrome trace holding every half iteration.
func TestAlstrainDebugSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain binary")
	}
	dir := t.TempDir()
	bin := e2e.Build(t, "alstrain")

	// The linger line means the run is done, so the scrape sees all of it.
	tracePath := filepath.Join(dir, "run.trace.json")
	p := e2e.Start(t, bin,
		"-preset", "MVLE", "-scale", "0.005", "-iters", "1", "-test-frac", "0",
		"-debug-addr", "127.0.0.1:0", "-debug-linger", "30s",
		"-span-trace-out", tracePath)
	base := "http://" + p.WaitLine("debug server listening on http://")
	p.WaitLine("debug server lingering")

	body := e2e.Scrape(t, base).Text
	for _, want := range []string{
		"als_train_iteration 1",
		`als_train_halves_total{half="X"} 1`,
		`als_train_halves_total{half="Y"} 1`,
		"als_train_stage_seconds_total{stage=",
		"als_train_worker_busy_seconds_total{worker=",
		"als_train_info{program=\"alstrain\"",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var info obs.TrainRunInfo
	e2e.GetJSON(t, base+"/runinfo", &info)
	if info.Iteration != 1 || info.Halves != 2 {
		t.Errorf("/runinfo progress iter=%d halves=%d, want 1 and 2", info.Iteration, info.Halves)
	}

	if body := string(e2e.Get(t, base+"/debug/pprof/cmdline")); !strings.Contains(body, "alstrain") {
		t.Errorf("pprof cmdline does not mention alstrain: %q", body)
	}

	if body := string(e2e.Get(t, base+"/debug/traces")); !strings.Contains(body, `"iter1/x"`) {
		t.Errorf("/debug/traces does not hold the finished run's spans: %.200s", body)
	}
	requireHalfSpans(t, tracePath, 1, 0)
	events := strings.TrimSpace(string(e2e.Get(t, base+"/debug/traces?format=jsonl")))
	if !strings.Contains(events, `"iter1/x"`) {
		t.Errorf("/debug/traces?format=jsonl does not hold the finished run's spans: %.200s", events)
	}
	for i, line := range strings.Split(events, "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("/debug/traces?format=jsonl line %d is not JSON: %q", i+1, line)
		}
	}

	for name, flags := range map[string][]string{
		"distributed": {"-workers", "2", "-span-trace-out"},
		"single":      {"-trace-sample", "1", "-span-trace-out"},
	} {
		path := filepath.Join(dir, name+".trace.json")
		args := append([]string{"-preset", "MVLE", "-scale", "0.005", "-iters", "2", "-test-frac", "0"}, flags...)
		e2e.Run(t, bin, append(args, path)...)
		ranks := 0
		if name == "distributed" {
			ranks = 2
		}
		requireHalfSpans(t, path, 2, ranks)
	}
}

// requireHalfSpans holds a Chrome trace file to: valid JSON, a load span
// and a ship<r> span for each of ranks ranks that say what they allocated,
// a train span, and an iter<N>/x and iter<N>/y span for every iteration.
func requireHalfSpans(t *testing.T, path string, iters, ranks int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not valid JSON: %v", path, err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Dur > 0 {
			spans[ev.Name]++
		}
		if ev.Name == "load" {
			if mb, err := strconv.ParseFloat(ev.Args["alloc_mb"], 64); err != nil || mb <= 0 {
				t.Errorf("%s: the load span's alloc_mb is %q, want a positive number", path, ev.Args["alloc_mb"])
			}
		}
		if strings.HasPrefix(ev.Name, "ship") && ev.Ph == "X" {
			if mb, err := strconv.ParseFloat(ev.Args["alloc_mb"], 64); err != nil || mb < 0 {
				t.Errorf("%s: the %s span's alloc_mb is %q, want a number", path, ev.Name, ev.Args["alloc_mb"])
			}
		}
	}
	want := []string{"load", "train"}
	for r := range ranks {
		want = append(want, fmt.Sprintf("ship%d", r))
	}
	for it := 1; it <= iters; it++ {
		want = append(want, fmt.Sprintf("iter%d/x", it), fmt.Sprintf("iter%d/y", it))
	}
	for _, name := range want {
		if spans[name] == 0 {
			t.Errorf("%s has no %q span (spans: %v)", path, name, spans)
		}
	}
}
