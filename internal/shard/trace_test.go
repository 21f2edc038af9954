package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/serve"
)

// TestTrainerTraceSpans runs a traced 2-worker in-process training job and
// checks the assembled span forest: a coordinator "train" root with one ship
// span per rank and per-half gather/broadcast children (and one wait span
// per rank), plus each worker's own setup and compute/gather/broadcast spans
// shipped back over the frameSpans frame and stitched into the same trace.
func TestTrainerTraceSpans(t *testing.T) {
	spec := DataSpec{Preset: "YMR4", Scale: 0.02, Seed: 7, TestFrac: 0}
	mx, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 2, 2
	tr := rtrace.New(rtrace.Config{Sample: 1, Process: "alstrain"})
	if _, _, err := Train(mx, TrainerConfig{
		Workers: workers, K: 4, Iterations: iters, Seed: 7,
		UseRecommended: true, Data: spec, Tracer: tr,
	}); err != nil {
		t.Fatal(err)
	}

	spans := tr.Snapshot()
	byID := map[rtrace.SpanID]rtrace.SpanRecord{}
	children := map[rtrace.SpanID][]rtrace.SpanRecord{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var root rtrace.SpanRecord
	for _, sp := range spans {
		if sp.Name == "train" {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatalf("no train root span among %d spans", len(spans))
	}
	// The ranks run the explicit row update, whose kernels this build binds.
	kernel := ""
	for _, a := range root.Attrs {
		if a.Key == "linalg_kernel" {
			kernel = a.Value
		}
	}
	if kernel != linalg.KernelName() {
		t.Errorf("root linalg_kernel attr %q, this build runs %q", kernel, linalg.KernelName())
	}

	// Coordinator side: one iterN/half span per half-iteration, each with a
	// gather (holding per-rank waits) and a broadcast child.
	halves, ships := 0, 0
	for _, h := range children[root.ID] {
		if h.Name == "worker0" || h.Name == "worker1" {
			continue
		}
		if h.Name == "ship0" || h.Name == "ship1" {
			ships++
			if len(h.Attrs) != 1 || h.Attrs[0].Key != "bytes" || h.Attrs[0].Value == "0" {
				t.Errorf("%s attrs = %v, want the bytes shipped", h.Name, h.Attrs)
			}
			continue
		}
		halves++
		names := map[string]int{}
		for _, c := range children[h.ID] {
			names[c.Name]++
			if c.Name == "gather" {
				if got := len(children[c.ID]); got != workers {
					t.Errorf("%s gather has %d wait spans, want %d", h.Name, got, workers)
				}
			}
		}
		if names["gather"] != 1 || names["broadcast"] != 1 {
			t.Errorf("%s children = %v, want one gather and one broadcast", h.Name, names)
		}
	}
	if halves != iters*2 || ships != workers {
		t.Errorf("coordinator half spans = %d, ship spans = %d, want %d and %d", halves, ships, iters*2, workers)
	}

	// Worker side: each rank's root continues the coordinator's trace and
	// carries compute/gather/broadcast spans for every half-iteration.
	for rank := 0; rank < workers; rank++ {
		name := "worker" + string(rune('0'+rank))
		var wroot rtrace.SpanRecord
		for _, sp := range spans {
			if sp.Name == name {
				wroot = sp
			}
		}
		if wroot.ID == 0 {
			t.Fatalf("no %s root span", name)
		}
		if wroot.Trace != root.Trace {
			t.Errorf("%s trace = %v, want coordinator trace %v", name, wroot.Trace, root.Trace)
		}
		if wroot.Parent != root.ID {
			t.Errorf("%s parent = %v, want train root %v", name, wroot.Parent, root.ID)
		}
		phases := map[string]int{}
		for _, h := range children[wroot.ID] {
			if h.Name == "setup" {
				phases["setup"]++
			}
			for _, c := range children[h.ID] {
				phases[c.Name]++
				if c.Name == "compute" && phases["setup"] != 1 {
					t.Errorf("%s computed before its setup span", name)
				}
			}
		}
		want := iters * 2
		if phases["compute"] != want || phases["gather"] != want || phases["broadcast"] != want {
			t.Errorf("%s phase spans = %v, want %d of each of compute/gather/broadcast", name, phases, want)
		}
	}

	if rec, dropped := tr.SpanCount(); int(rec) != len(spans) || dropped != 0 {
		t.Errorf("span counters (%d, %d) disagree with %d snapshot spans", rec, dropped, len(spans))
	}

	// An untraced run (nil tracer) still works and records nothing new.
	before := len(tr.Snapshot())
	if _, _, err := Train(mx, TrainerConfig{
		Workers: workers, K: 4, Iterations: 1, Seed: 7,
		UseRecommended: true, Data: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Snapshot()); got != before {
		t.Errorf("untraced run added %d spans", got-before)
	}
}

// tracedFleet builds a 2-shard fleet where the frontend and both replicas
// share one tracer, so shard-side middleware spans land in the same ring the
// frontend publishes to (in production each process has its own tracer and
// the traces are joined by ID in the UI; sharing one here lets the test see
// the whole stitched tree).
func tracedFleet(t *testing.T, tr *rtrace.Tracer) *serve.Frontend {
	t.Helper()
	const shards = 2
	m := tieModel(5, 23, 3)
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv := serve.New(serve.Config{Tracer: tr})
		rep, err := serve.NewReplica(srv, serve.ReplicaConfig{Index: i, Count: shards})
		if err != nil {
			t.Fatal(err)
		}
		rep.Swap(m, nil, "v1")
		ts := httptest.NewServer(rep.Handler())
		t.Cleanup(func() { ts.Close(); rep.Close(); srv.Close() })
		urls[i] = ts.URL
	}
	front, err := serve.NewFrontend(serve.FrontendConfig{
		Shards: urls, ShardTimeout: 5 * time.Second, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	front.ProbeOnce(context.Background())
	return front
}

// TestFrontendTraceSpans checks the scatter-gather span tree: a frontend
// root with one hop child per contacted shard (plus the merge span), hop
// envelopes inside the root's, the shard's own middleware span stitched
// under its hop via the context its request frame carries, and the trace retrievable from
// the flight recorder by the same ID.
func TestFrontendTraceSpans(t *testing.T) {
	tr := rtrace.New(rtrace.Config{Sample: 1, Process: "alsfront"})
	front := tracedFleet(t, tr)
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(fts.Close)

	if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=5", nil); code != 200 {
		t.Fatalf("recommend: HTTP %d", code)
	}

	spans := tr.Snapshot()
	children := map[rtrace.SpanID][]rtrace.SpanRecord{}
	var root rtrace.SpanRecord
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
		if sp.Name == "recommend" && sp.Parent == 0 {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatalf("no frontend root span among %d spans", len(spans))
	}
	hops, merges := 0, 0
	for _, c := range children[root.ID] {
		if c.Trace != root.Trace {
			t.Errorf("child %q trace = %v, want root trace %v", c.Name, c.Trace, root.Trace)
		}
		if c.Start.Before(root.Start) || c.Start.Add(c.Dur).After(root.Start.Add(root.Dur)) {
			t.Errorf("child %q outside the root envelope", c.Name)
		}
		switch {
		case strings.HasPrefix(c.Name, "shard"):
			hops++
			// The shard's middleware span joined the trace through the
			// context in the hop's request frame.
			found := false
			for _, g := range children[c.ID] {
				if g.Name == "recommend" {
					found = true
				}
			}
			if !found {
				t.Errorf("hop %q has no shard-side middleware span beneath it", c.Name)
			}
		case c.Name == "merge":
			merges++
		}
	}
	if hops != 2 {
		t.Errorf("root has %d shard hop spans, want 2", hops)
	}
	if merges != 1 {
		t.Errorf("root has %d merge spans, want 1", merges)
	}

	slowest := tr.Slowest()
	traces, ok := slowest["recommend"]
	if !ok || len(traces) == 0 {
		t.Fatalf("flight recorder has no recommend traces: %v", slowest)
	}
	if traces[0].Trace != root.Trace {
		t.Errorf("slowest trace ID %v, want %v", traces[0].Trace, root.Trace)
	}
}

// TestTimedStatusCodesConcurrent drives mixed-status requests through the
// frontend middleware from many goroutines at once: the statusWriter must
// capture each handler's code without races, and the per-code counter and
// histogram labels must add up exactly.
func TestTimedStatusCodesConcurrent(t *testing.T) {
	front := tracedFleet(t, nil)
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(fts.Close)

	const perCode = 8
	var wg sync.WaitGroup
	for i := 0; i < perCode; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=3", nil); code != 200 {
				t.Errorf("known user: HTTP %d", code)
			}
		}()
		go func() {
			defer wg.Done()
			if code := getJSON(t, fts.URL+"/v1/recommend?user=99999&n=3", nil); code != 404 {
				t.Errorf("unknown user: HTTP %d", code)
			}
		}()
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := front.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if _, err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	for _, want := range []string{
		fmt.Sprintf(`als_front_requests_total{endpoint="recommend",code="200"} %d`, perCode),
		fmt.Sprintf(`als_front_requests_total{endpoint="recommend",code="404"} %d`, perCode),
		fmt.Sprintf(`als_front_request_seconds_count{code="200"} %d`, perCode),
		fmt.Sprintf(`als_front_request_seconds_count{code="404"} %d`, perCode),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
