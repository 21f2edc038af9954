package shard_test

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/e2e"
)

// chromeExport is the /debug/traces document shape this test validates.
type chromeExport struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceSmoke is the `make trace-smoke` CI lane: a 2-shard fleet of real
// binaries with the frontend sampling every request, driven over HTTP, then
// judged on its /debug/traces export — well-formed Chrome trace JSON where
// every frontend root span carries at least one shard hop child inside the
// root's time envelope, and /debug/slowest retains the same trace IDs.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain/alsserve/alsfront binaries")
	}
	model := filepath.Join(t.TempDir(), "smoke.model")
	e2e.Run(t, e2e.Build(t, "alstrain"), append(fleetTrainArgs, "-out", model)...)
	front, frontURL := startFleet(t, model, "-debug-addr", "127.0.0.1:0", "-trace-sample", "1.0")
	debugURL := "http://" + front.WaitLine("debug server listening on http://")

	const requests = 5
	for i := 0; i < requests; i++ {
		e2e.Get(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=5", frontURL, i+1))
	}

	raw := e2e.Get(t, debugURL+"/debug/traces")
	var export chromeExport
	if err := json.Unmarshal(raw, &export); err != nil {
		t.Fatalf("/debug/traces is not valid Chrome trace JSON: %v\n%s", err, raw)
	}
	if export.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", export.DisplayTimeUnit)
	}

	// Index the span events and check every frontend root's shard children.
	type ev = struct {
		name     string
		ts, dur  float64
		children int
	}
	spans := map[string]*ev{}
	var roots []string
	for _, e := range export.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans[e.Args["span_id"]] = &ev{name: e.Name, ts: e.TS, dur: e.Dur}
		if e.Name == "recommend" && e.Args["parent_id"] == "" {
			roots = append(roots, e.Args["span_id"])
		}
	}
	rootTraces := map[string]bool{}
	for _, e := range export.TraceEvents {
		if e.Ph != "X" || !strings.HasPrefix(e.Name, "shard") {
			continue
		}
		parent, ok := spans[e.Args["parent_id"]]
		if !ok || parent.name != "recommend" {
			continue
		}
		if e.TS < parent.ts || e.TS+e.Dur > parent.ts+parent.dur+0.001 {
			t.Errorf("hop %q [%f,%f] escapes its root envelope [%f,%f]",
				e.Name, e.TS, e.TS+e.Dur, parent.ts, parent.ts+parent.dur)
		}
		parent.children++
	}
	if len(roots) < requests {
		t.Fatalf("%d frontend root spans, want >= %d driven requests\n%s", len(roots), requests, raw)
	}
	for _, id := range roots {
		if spans[id].children == 0 {
			t.Errorf("frontend root span %s has no shard hop children", id)
		}
	}
	for _, e := range export.TraceEvents {
		if e.Ph == "X" && e.Name == "recommend" && e.Args["parent_id"] == "" {
			rootTraces[e.Args["trace_id"]] = true
		}
	}

	// The flight recorder retains the same traces, addressable by ID.
	var slowest map[string][]struct {
		TraceID string `json:"trace_id"`
	}
	e2e.GetJSON(t, debugURL+"/debug/slowest", &slowest)
	if len(slowest["recommend"]) == 0 {
		t.Fatalf("/debug/slowest holds no recommend traces: %v", slowest)
	}
	for _, st := range slowest["recommend"] {
		if !rootTraces[st.TraceID] {
			t.Errorf("slowest trace %s not among the exported root trace IDs", st.TraceID)
		}
	}
}
