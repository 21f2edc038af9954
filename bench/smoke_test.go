package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// differences are per-layer metrics defined as one timing minus another;
// at toy sizes either side can win, so they are only required to be finite.
var differences = map[string]bool{
	"core.overhead_s": true, "serve.fixed_us": true, "shard.exchange_s": true, "shard.merge_us": true,
	"client.http_us": true, "rtrace.handler_tax_us": true, "obs.recorder_tax_pct": true,
}

// TestSmoke runs every workload at toy size through both modes — the real
// binaries with three training jobs (one of them after serving, like a
// full run) and two short segments, then the in-process traced run — and checks that every metric BENCHMARK.json declares comes
// out, that no operation failed, and that the trace is well formed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(man.Workloads), len(workloads))
	}
	work := t.TempDir()
	bins, err := buildBinaries(root, filepath.Join(work, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	rn := &runner{root: root, man: man, bins: bins, workDir: work, seconds: 2,
		setupReps: 2, trainReps: 3, segments: 2, procs: newProcSet(work, childProcs())}
	defer rn.procs.killAll()

	for i, listed := range man.Workloads {
		w, err := workloadByName(listed.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %s in BENCHMARK.json but %s in the benchmark", i, listed.Name, workloads[i].Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			w := w.toy()
			res, err := rn.runUntraced(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, man.EndToEnd, true)
			for _, m := range []string{"setup_s", "train_to_target_s", "serve_rps", "serve_p50_ms", "serve_cpu_us_per_req"} {
				if raw := res.Aux[m+".raw"]; !(raw > 0) {
					t.Errorf("%s.raw = %g: the uncorrected value is missing from the aux fields", m, raw)
				}
			}
			if jobs := res.Aux["train_jobs"]; jobs != float64(rn.trainReps) {
				t.Errorf("%g training jobs measured, want %d", jobs, rn.trainReps)
			}
			if segs, swaps := res.Aux["serve_segments"], res.Aux["serve_swaps"]; segs != float64(rn.segments) || (w.Republish && swaps != segs) {
				t.Errorf("%g segments measured with %g hot-swaps, want %d segments and, when republishing, a swap in each", segs, swaps, rn.segments)
			}

			res, err = rn.runTraced(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, man.PerLayer, false)
			checkTrace(t, res.TraceFile, w.Name)
			os.Remove(res.TraceFile)
		})
	}
	if left := rn.procs.orphans(); len(left) > 0 {
		t.Errorf("orphan processes: %v", left)
	}
}

func checkResult(t *testing.T, res *result, declared []metricSpec, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s = %g", m.Name, got.Value)
		case positive && got.Value <= 0:
			t.Errorf("%s = %g, want > 0", m.Name, got.Value)
		case got.Value < 0 && !differences[m.Name]:
			t.Errorf("%s = %g, want >= 0", m.Name, got.Value)
		}
	}
}

func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The trace is rtrace's Chrome export: metadata ("M") events naming the
	// process and the lane, then one complete ("X") event per span.
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	ids := map[any]bool{nil: true} // a root span carries no parent_id
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans++
			ids[ev.Args["span_id"]] = true
		}
	}
	if spans < 10 {
		t.Fatalf("trace holds %d spans", spans)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if !ids[ev.Args["parent_id"]] {
			t.Errorf("span %q names parent %v, which is not in the trace", ev.Name, ev.Args["parent_id"])
		}
		if ev.Args["workload"] != workload {
			t.Errorf("span %q is tagged %v, want %s", ev.Name, ev.Args["workload"], workload)
		}
		if ev.Dur < 0 {
			t.Errorf("span %q: duration %g", ev.Name, ev.Dur)
		}
	}
}
