package host

import (
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/variant"
)

// TestTrainWithRecorder: observing a run must not change its results, and
// the recorder must come back fully populated — halves, per-worker rows,
// stage time, and loss points.
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
	observed, err := Train(mx, cfg)
	if err != nil {
		t.Fatal(err)
	}

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
	if _, err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("live metrics do not validate: %v", err)
	}
	wantRows := 3 * (mx.Rows() + mx.Cols())
	var gotRows int
	for _, ev := range info.RecentEvents {
		if ev.Event == "half" {
			for _, wh := range ev.Workers {
				gotRows += wh.Rows
			}
		}
	}
	if gotRows != wantRows {
		t.Errorf("worker rows sum to %d, want %d", gotRows, wantRows)
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
