package core

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/guard"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rtrace"
)

// spanTree indexes one published trace: the root, per name its direct
// children, and per child the "gram" spans under it — the one grandchild a
// training trace has (implicit mode's shared Gram, under the half or the
// objective that computed or reused it).
type spanTree struct {
	root     rtrace.SpanRecord
	children map[string][]rtrace.SpanRecord
	grams    map[rtrace.SpanID][]rtrace.SpanRecord
}

func readTree(t *testing.T, tr *rtrace.Tracer) spanTree {
	t.Helper()
	tree := spanTree{children: map[string][]rtrace.SpanRecord{}, grams: map[rtrace.SpanID][]rtrace.SpanRecord{}}
	spans := tr.Snapshot()
	names := map[rtrace.SpanID]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
		if s.Parent == 0 {
			if tree.root.ID != 0 {
				t.Fatalf("two root spans: %q and %q", tree.root.Name, s.Name)
			}
			tree.root = s
		}
	}
	if tree.root.Name != "train" {
		t.Fatalf("root span %q, want \"train\" (%d spans)", tree.root.Name, len(spans))
	}
	for _, s := range spans {
		if s.ID == tree.root.ID {
			continue
		}
		if s.Start.Before(tree.root.Start) || s.Start.Add(s.Dur).After(tree.root.Start.Add(tree.root.Dur)) {
			t.Errorf("span %q [%v +%v] leaves train's envelope [%v +%v]",
				s.Name, s.Start, s.Dur, tree.root.Start, tree.root.Dur)
		}
		if over := names[s.Parent]; s.Name == "gram" && s.Trace == tree.root.Trace &&
			(over == "objective" || strings.HasPrefix(over, "iter")) {
			tree.grams[s.Parent] = append(tree.grams[s.Parent], s)
			continue
		}
		if s.Trace != tree.root.Trace || s.Parent != tree.root.ID {
			t.Errorf("span %q is not a child of train (trace %v parent %v)", s.Name, s.Trace, s.Parent)
		}
		tree.children[s.Name] = append(tree.children[s.Name], s)
	}
	return tree
}

func spanAttrs(s rtrace.SpanRecord) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for _, a := range s.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TestTrainSpanTree pins the one timeline of a single-process run: a traced
// run's spans are train ⊃ {iter<N>/x, iter<N>/y, objective, checkpoint.save,
// checkpoint.gc} with every child inside the root's time envelope, the half
// spans carry the stage shares (which cannot exceed workers × the half's
// wall time), checkpoints are counted once on the recorder — and tracing
// changes neither the factors nor the checkpoint bytes.
func TestTrainSpanTree(t *testing.T) {
	mx := ckptMatrix(t)
	const iters, workers = 2, 2
	cases := map[string]Config{
		"explicit":    {K: 6, Lambda: 0.1, Seed: 7, UseRecommended: true},
		"implicit cg": {K: 6, Lambda: 0.1, Seed: 7, Implicit: true, Alpha: 40, Solver: host.SolverCG, CGIters: 3},
	}
	for name, base := range cases {
		base.Iterations, base.Workers = iters, workers
		base.CheckpointDir = "ckpts"

		plain := base
		plainFS := checkpoint.NewMemFS()
		plain.CheckpointFS, plain.Guard = plainFS, guard.New(guard.Policy{})
		want, _, err := Train(mx, plain)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		tr := rtrace.New(rtrace.Config{Sample: 1, Slowest: -1})
		rec, reg := obs.NewTrainRecorder(), obs.NewRegistry()
		rec.Register(reg)
		traced := base
		tracedFS := checkpoint.NewMemFS()
		traced.CheckpointFS, traced.Guard = tracedFS, guard.New(guard.Policy{})
		traced.Tracer, traced.Obs = tr, rec
		got, _, err := Train(mx, traced)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if linalg.MaxAbsDiff(want.X, got.X) != 0 || linalg.MaxAbsDiff(want.Y, got.Y) != 0 {
			t.Errorf("%s: tracing changed the factors", name)
		}
		for it := 1; it <= iters; it++ {
			file := "ckpts/" + checkpoint.FileName(it)
			a, okA := plainFS.ReadFile(file)
			b, okB := tracedFS.ReadFile(file)
			if !okA || !okB || string(a) != string(b) {
				t.Errorf("%s: checkpoint %d differs between the plain and the traced run (present: %v, %v)", name, it, okA, okB)
			}
		}

		tree := readTree(t, tr)
		if v := spanAttrs(tree.root)["mode"]; v != host.ModeLabel(base.Implicit) {
			t.Errorf("%s: root mode attr %q", name, v)
		}
		if v := spanAttrs(tree.root)["linalg_kernel"]; v != linalg.KernelName() {
			t.Errorf("%s: root linalg_kernel attr %q, this build runs %q", name, v, linalg.KernelName())
		}
		for _, half := range []string{"iter1/x", "iter1/y", "iter2/x", "iter2/y"} {
			hs := tree.children[half]
			if len(hs) != 1 {
				t.Errorf("%s: %d spans named %s, want 1", name, len(hs), half)
				continue
			}
			a := spanAttrs(hs[0])
			var stageMS float64
			for k, v := range a {
				if strings.HasPrefix(k, "stage_ms/") {
					ms, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Errorf("%s %s: attr %s=%q", name, half, k, v)
					}
					stageMS += ms
				}
			}
			// Attributes are rounded to the microsecond.
			budget := workers*float64(hs[0].Dur)/float64(time.Millisecond) + 0.01
			if stageMS <= 0 || stageMS > budget {
				t.Errorf("%s %s: stage time %.3f ms outside (0, %d workers × %v]", name, half, stageMS, workers, hs[0].Dur)
			}
			// The shared Gram is a pool pass inside an implicit half's
			// envelope — or, when the objective before the half already
			// computed it (every X half after the first), a reuse that costs
			// nothing; an explicit half has none to name.
			gramMS, err := strconv.ParseFloat(a["shared_gram_ms"], 64)
			grams := tree.grams[hs[0].ID]
			if base.Implicit {
				reused := half == "iter2/x"
				halfMS := float64(hs[0].Dur)/float64(time.Millisecond) + 0.01
				if err != nil || gramMS < 0 || gramMS > halfMS || (gramMS == 0) != reused || (a["shared_gram_reused"] == "true") != reused {
					t.Errorf("%s %s: shared_gram_ms %q (reused %q) outside [0, %v], or zero without a reuse", name, half, a["shared_gram_ms"], a["shared_gram_reused"], hs[0].Dur)
				}
				if len(grams) != 1 {
					t.Errorf("%s %s: %d gram spans, want 1", name, half, len(grams))
				} else if ga := spanAttrs(grams[0]); ga["reused"] != strconv.FormatBool(reused) || ga["workers"] != strconv.Itoa(workers) || ga["rows"] == "" {
					t.Errorf("%s %s: gram span attrs %v, want reused=%v", name, half, ga, reused)
				}
			} else if _, has := a["shared_gram_ms"]; has || len(grams) != 0 {
				t.Errorf("%s %s: an explicit half reports a shared Gram", name, half)
			}
			for _, key := range []string{"rows", "nnz", "rows_per_sec", "worker0.busy_ms", "worker1.chunks", "worker1.rows"} {
				if a[key] == "" {
					t.Errorf("%s %s: no %s attribute in %v", name, half, key, a)
				}
			}
		}
		// The armed guard judges the objective once per iteration; an
		// implicit one computes the Gram of the side just solved (Y) and
		// reuses the one the Y half took (X).
		for _, o := range tree.children["objective"] {
			var reused []string
			for _, g := range tree.grams[o.ID] {
				reused = append(reused, spanAttrs(g)["reused"])
			}
			if want := map[bool]string{false: "", true: "false true"}[base.Implicit]; strings.Join(reused, " ") != want {
				t.Errorf("%s: objective's gram spans reused=%q, want %q", name, reused, want)
			}
		}
		for spanName, n := range map[string]int{"objective": iters, "checkpoint.save": iters, "checkpoint.gc": iters} {
			if len(tree.children[spanName]) != n {
				t.Errorf("%s: %d %s spans, want %d", name, len(tree.children[spanName]), spanName, n)
			}
		}
		if len(tree.children["checkpoint.load"]) != 0 {
			t.Errorf("%s: a fresh run loaded a checkpoint", name)
		}
		for i, s := range tree.children["checkpoint.save"] {
			if a := spanAttrs(s); a["iter"] != strconv.Itoa(i+1) || a["bytes"] == "" || a["bytes"] == "0" {
				t.Errorf("%s: checkpoint.save %d attrs %v", name, i+1, a)
			}
		}
		var expo strings.Builder
		if err := reg.WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		if want := `als_checkpoint_io_total{op="save",result="ok"} ` + strconv.Itoa(iters); !strings.Contains(expo.String(), want) {
			t.Errorf("%s: metrics lack %q", name, want)
		}

		// Resuming the finished run is one checkpoint.load and nothing else.
		tr2 := rtrace.New(rtrace.Config{Sample: 1, Slowest: -1})
		resumed := traced
		resumed.Tracer, resumed.Obs, resumed.Resume = tr2, nil, true
		if _, info, err := Train(mx, resumed); err != nil || info.ResumedFrom != iters {
			t.Fatalf("%s resume: %v (%+v)", name, err, info)
		}
		tree = readTree(t, tr2)
		if len(tree.children["checkpoint.load"]) != 1 || len(tree.children) != 1 {
			t.Errorf("%s resume: children %v, want one checkpoint.load", name, tree.children)
		}
	}
}

// TestRollbackIsARootAttribute: a divergence rollback shows on the run's
// root span, and the checkpoint it restarted from is a checkpoint.load.
func TestRollbackIsARootAttribute(t *testing.T) {
	mx := ckptMatrix(t)
	g := guard.New(guard.Policy{})
	g.Chaos = &guard.Chaos{BlowUpIter: 2}
	tr := rtrace.New(rtrace.Config{Sample: 1, Slowest: -1})
	_, info, err := Train(mx, Config{
		K: 5, Lambda: 0.1, Iterations: 3, Seed: 3, Tracer: tr,
		CheckpointDir: "ckpts", CheckpointFS: checkpoint.NewMemFS(), Guard: g,
	})
	if err != nil || info.Rollbacks != 1 {
		t.Fatalf("err %v, rollbacks %d", err, info.Rollbacks)
	}
	tree := readTree(t, tr)
	if v := spanAttrs(tree.root)["rollback1"]; !strings.HasPrefix(v, "iter=2 loss=") {
		t.Errorf("root rollback1 attr %q", v)
	}
	if len(tree.children["checkpoint.load"]) != 1 {
		t.Errorf("%d checkpoint.load spans, want the rollback's one", len(tree.children["checkpoint.load"]))
	}
	if len(tree.children["iter2/x"]) != 2 {
		t.Errorf("iteration 2 ran %d times, want the diverged attempt and the replay", len(tree.children["iter2/x"]))
	}
}

// TestTraceReadableWhileTraining: /debug/traces reads the tracer from the
// debug server's goroutines while the training loop starts, annotates and
// ends spans on its own; under -race this is the check that the two only
// meet at the tracer's ring.
func TestTraceReadableWhileTraining(t *testing.T) {
	mx := ckptMatrix(t)
	tr := rtrace.New(rtrace.Config{Sample: 1})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := tr.WriteChromeTrace(io.Discard); err != nil {
					t.Error(err)
					return
				}
				tr.Slowest()
			}
		}()
	}
	for run := 0; run < 3; run++ { // each run publishes one trace the readers then see
		if _, _, err := Train(mx, Config{K: 5, Lambda: 0.1, Iterations: 2, Seed: 3, Workers: 2,
			Tracer: tr, TrackLoss: true, CheckpointDir: "ckpts", CheckpointFS: checkpoint.NewMemFS()}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if recorded, _ := tr.SpanCount(); recorded == 0 {
		t.Error("no spans recorded")
	}
}
