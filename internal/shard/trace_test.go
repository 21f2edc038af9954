package shard

import (
	"strconv"
	"testing"

	"repro/internal/linalg"
	"repro/internal/rtrace"
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
			attrs := map[string]string{}
			for _, a := range h.Attrs {
				attrs[a.Key] = a.Value
			}
			mb, err := strconv.ParseFloat(attrs["alloc_mb"], 64)
			if len(attrs) != 2 || attrs["bytes"] == "" || attrs["bytes"] == "0" || err != nil || mb < 0 {
				t.Errorf("%s attrs = %v, want the bytes shipped and the MiB allocated", h.Name, h.Attrs)
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
