package host

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/e2e"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/variant"
)

// tracedRoot opens a fully-sampled root span for a test run; the returned
// func ends it and hands back the published spans.
func tracedRoot(t *testing.T) (context.Context, func() []rtrace.SpanRecord) {
	t.Helper()
	tr := rtrace.New(rtrace.Config{Sample: 1, Slowest: -1})
	ctx, root := tr.StartRequest(context.Background(), "train", rtrace.SpanContext{})
	return ctx, func() []rtrace.SpanRecord {
		root.End()
		return tr.Snapshot()
	}
}

func attrs(s rtrace.SpanRecord) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for _, a := range s.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TestTrainWithRecorder: observing a run — counters, spans or both — must
// not change its results, the recorder must come back fully populated
// (halves, per-worker rows, stage time, loss points), and the half spans
// must carry what the recorder counted.
func TestTrainWithRecorder(t *testing.T) {
	mx := smallDataset(t, 6)
	base := Config{K: 8, Lambda: 0.1, Iterations: 3, Seed: 9, Workers: 3,
		Variant: variant.Options{Vector: true, Fused: true}, TrackLoss: true}

	plain, err := Train(mx, base)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.NewTrainRecorder()
	reg := obs.NewRegistry()
	rec.Register(reg)
	cfg := base
	cfg.Obs = rec
	ctx, finish := tracedRoot(t)
	cfg.Trace = ctx
	observed, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spans := finish()

	if d := linalg.MaxAbsDiff(plain.X, observed.X); d != 0 {
		t.Errorf("observed run changed X by %g", d)
	}
	if d := linalg.MaxAbsDiff(plain.Y, observed.Y); d != 0 {
		t.Errorf("observed run changed Y by %g", d)
	}

	info := rec.RunInfo()
	if info.Iteration != 3 || info.Halves != 6 {
		t.Errorf("recorder progress: iter %d halves %d, want 3 and 6", info.Iteration, info.Halves)
	}
	if info.Meta.Rows != mx.Rows() || info.Meta.Cols != mx.Cols() || info.Meta.NNZ != mx.NNZ() {
		t.Errorf("recorder shape %d x %d (%d nnz), want %d x %d (%d)",
			info.Meta.Rows, info.Meta.Cols, info.Meta.NNZ, mx.Rows(), mx.Cols(), mx.NNZ())
	}
	if info.Meta.Workers != 3 || info.Meta.Variant != base.Variant.String() {
		t.Errorf("recorder meta workers=%d variant=%q", info.Meta.Workers, info.Meta.Variant)
	}
	if info.LastLoss == nil {
		t.Error("recorder has no loss despite TrackLoss")
	}
	// Worker row totals must account for every row update exactly once:
	// (m + n) rows per iteration over 3 iterations.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if _, err := e2e.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("live metrics do not validate: %v", err)
	}
	wantRows := 3 * (mx.Rows() + mx.Cols())
	var gotRows, halves, objectives int
	for _, sp := range spans {
		a := attrs(sp)
		switch {
		case strings.HasPrefix(sp.Name, "iter"):
			halves++
			rows, _ := strconv.Atoi(a["rows"])
			var perWorker int
			for w := 0; w < 3; w++ {
				n, err := strconv.Atoi(a["worker"+strconv.Itoa(w)+".rows"])
				if err != nil {
					t.Errorf("%s: worker %d rows attr %q", sp.Name, w, a["worker"+strconv.Itoa(w)+".rows"])
				}
				perWorker += n
			}
			if perWorker != rows {
				t.Errorf("%s: workers updated %d rows, span says %d", sp.Name, perWorker, rows)
			}
			gotRows += perWorker
			if a["nnz"] != strconv.Itoa(mx.NNZ()) || a["rows_per_sec"] == "" || a["stage_ms/s3"] == "" {
				t.Errorf("%s: attrs %v", sp.Name, a)
			}
		case sp.Name == "objective":
			objectives++
			if _, err := strconv.ParseFloat(a["loss"], 64); err != nil {
				t.Errorf("objective span loss attr %q", a["loss"])
			}
		}
	}
	if gotRows != wantRows {
		t.Errorf("worker rows sum to %d, want %d", gotRows, wantRows)
	}
	if halves != 6 || objectives != 6 { // TrackLoss: one evaluation per half
		t.Errorf("%d half spans and %d objective spans, want 6 and 6", halves, objectives)
	}
	for _, want := range []string{"iter1/x", "iter1/y", "iter3/y"} {
		if !hasSpan(spans, want) {
			t.Errorf("no span %q", want)
		}
	}
	// The same totals on /metrics.
	if want := "als_train_rows_total{half=\"X\"} " + strconv.Itoa(3*mx.Rows()); !strings.Contains(out, want) {
		t.Errorf("metrics lack %q", want)
	}
}

func hasSpan(spans []rtrace.SpanRecord, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestTracedRunWithoutRecorder: the trace alone turns the measuring on, and
// a context without a live span (or none) leaves the run unwatched.
func TestTracedRunWithoutRecorder(t *testing.T) {
	mx := smallDataset(t, 6)
	cfg := Config{K: 8, Lambda: 0.1, Iterations: 1, Seed: 9, Workers: 2}
	ctx, finish := tracedRoot(t)
	cfg.Trace = ctx
	if _, err := Train(mx, cfg); err != nil {
		t.Fatal(err)
	}
	spans := finish()
	for _, name := range []string{"iter1/x", "iter1/y"} {
		if !hasSpan(spans, name) {
			t.Errorf("no span %q in %d spans", name, len(spans))
		}
	}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "iter") && attrs(sp)["stage_ms/s3"] == "" {
			t.Errorf("%s has no stage time: %v", sp.Name, sp.Attrs)
		}
	}
	cfg.Trace = context.Background()
	if p := newWorkerPool(cfg); p.shares != nil || p.trace != nil {
		t.Error("a context without a span turned the measuring on")
	} else {
		p.close()
	}
}

// TestStageAttributionPerMode pins which stage buckets each training mode
// charges — the contract the implicit smoke lane and DESIGN.md's Fig. 8
// mapping rely on: split kernels report s1, s2 and s3; every packed one-sweep
// assembly reports s1+s2 and s3; CG never assembles, so its right-hand side
// is s2 and the iterations s3; a block sweep is all s1+s2, with s3 holding
// only the (normally empty) fall-through to the assembled system.
func TestStageAttributionPerMode(t *testing.T) {
	mx := smallDataset(t, 7)
	cases := []struct {
		name     string
		cfg      Config
		want     []string
		optional string
	}{
		{"explicit dense", Config{Variant: variant.Options{Vector: true}}, []string{"s1", "s2", "s3"}, ""},
		{"explicit fused", Config{Variant: variant.Options{Vector: true, Fused: true}}, []string{"s1+s2", "s3"}, ""},
		{"explicit cg", Config{Solver: SolverCG}, []string{"s2", "s3"}, ""},
		{"implicit direct", Config{Implicit: true}, []string{"s1+s2", "s3"}, ""},
		{"implicit cg", Config{Implicit: true, Solver: SolverCG}, []string{"s2", "s3"}, ""},
		{"implicit block", Config{Implicit: true, BlockSize: 3}, []string{"s1+s2"}, "s3"},
	}
	for _, tc := range cases {
		rec := obs.NewTrainRecorder()
		cfg := tc.cfg
		cfg.K, cfg.Lambda, cfg.Iterations, cfg.Seed, cfg.Workers, cfg.Obs = 8, 0.1, 1, 9, 2, rec
		if _, err := Train(mx, cfg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := rec.RunInfo().StageSeconds
		allowed := map[string]bool{tc.optional: true}
		for _, s := range tc.want {
			allowed[s] = true
			if got[s] <= 0 {
				t.Errorf("%s: stage %s unreported: %v", tc.name, s, got)
			}
		}
		for s := range got {
			if !allowed[s] {
				t.Errorf("%s: unexpected stage %s: %v", tc.name, s, got)
			}
		}
	}
}
