package obs_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	bin := filepath.Join(dir, "alstrain")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/alstrain")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building alstrain: %v\n%s", err, out)
	}

	tracePath := filepath.Join(dir, "run.trace.json")
	cmd := exec.Command(bin,
		"-preset", "MVLE", "-scale", "0.005", "-iters", "1", "-test-frac", "0",
		"-debug-addr", "127.0.0.1:0", "-debug-linger", "30s",
		"-span-trace-out", tracePath)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Follow stdout: grab the bound debug address, then wait until the run
	// is done (the linger line) so the scrape sees the full training run.
	var addr string
	sc := bufio.NewScanner(stdout)
	deadline := time.After(60 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
wait:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("alstrain exited before lingering")
			}
			if rest, found := strings.CutPrefix(line, "debug server listening on http://"); found {
				addr = rest
			}
			if strings.HasPrefix(line, "debug server lingering") {
				break wait
			}
		case <-deadline:
			t.Fatal("timed out waiting for alstrain")
		}
	}
	if addr == "" {
		t.Fatal("alstrain never printed the debug address")
	}

	body := get(t, "http://"+addr+"/metrics")
	n, err := obs.ValidateExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	if n == 0 {
		t.Fatal("/metrics served zero samples")
	}
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
	if err := json.Unmarshal([]byte(get(t, "http://"+addr+"/runinfo")), &info); err != nil {
		t.Fatalf("/runinfo is not JSON: %v", err)
	}
	if info.Iteration != 1 || info.Halves != 2 {
		t.Errorf("/runinfo progress iter=%d halves=%d, want 1 and 2", info.Iteration, info.Halves)
	}

	if body := get(t, "http://"+addr+"/debug/pprof/cmdline"); !strings.Contains(body, "alstrain") {
		t.Errorf("pprof cmdline does not mention alstrain: %q", body)
	}

	if body := get(t, "http://"+addr+"/debug/traces"); !strings.Contains(body, `"iter1/x"`) {
		t.Errorf("/debug/traces does not hold the finished run's spans: %.200s", body)
	}
	requireHalfSpans(t, tracePath, 1)
	events := strings.TrimSpace(get(t, "http://"+addr+"/debug/traces?format=jsonl"))
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
		if out, err := exec.Command(bin, append(args, path)...).CombinedOutput(); err != nil {
			t.Fatalf("%s run: %v\n%s", name, err, out)
		}
		requireHalfSpans(t, path, 2)
	}
}

// requireHalfSpans holds a Chrome trace file to: valid JSON, a train span,
// and an iter<N>/x and iter<N>/y span for every iteration.
func requireHalfSpans(t *testing.T, path string, iters int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
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
	}
	want := []string{"train"}
	for it := 1; it <= iters; it++ {
		want = append(want, fmt.Sprintf("iter%d/x", it), fmt.Sprintf("iter%d/y", it))
	}
	for _, name := range want {
		if spans[name] == 0 {
			t.Errorf("%s has no %q span (spans: %v)", path, name, spans)
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
