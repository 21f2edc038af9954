package shard

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/e2e"
	"repro/internal/obs"
	"repro/internal/rtrace"
)

// TestDistributedResumeChecksTheModeBlock: the coordinator resumes through
// core's one compatibility check, so a checkpoint directory left by an
// implicit run is refused — with core.Train's own message — instead of
// being continued as explicit training from implicit factors.
func TestDistributedResumeChecksTheModeBlock(t *testing.T) {
	spec := DataSpec{Preset: "YMR4", Scale: 0.03, Seed: 9, TestFrac: 0}
	mx, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	fsys := checkpoint.NewMemFS()
	base := core.Config{K: 6, Lambda: 0.1, Iterations: 1, Seed: 9, UseRecommended: true,
		CheckpointDir: "ckpts", CheckpointFS: fsys}
	implicit := base
	implicit.Implicit, implicit.Alpha = true, 40
	if _, _, err := core.Train(mx, implicit); err != nil {
		t.Fatal(err)
	}
	if st, _, err := checkpoint.LoadLatest(fsys, "ckpts"); err != nil || !st.Implicit {
		t.Fatalf("setup: want an implicit v3 state in the directory (%v)", err)
	}

	explicit := base
	explicit.Iterations, explicit.Resume = 2, true
	_, _, want := core.Train(mx, explicit)
	if want == nil || !strings.Contains(want.Error(), "implicit-feedback run") {
		t.Fatalf("core.Train resumed an implicit checkpoint as explicit: %v", want)
	}
	_, _, got := Train(mx, TrainerConfig{
		Workers: 2, K: 6, Lambda: 0.1, Iterations: 2, Seed: 9, UseRecommended: true,
		Data: spec, CheckpointDir: "ckpts", CheckpointFS: fsys, Resume: true,
	})
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("shard.Train: %v\ncore.Train:  %v", got, want)
	}
}

// TestResumeAcrossTrainers: α and the CG budget do not enter explicit
// direct-solver arithmetic, so a checkpoint written under alstrain's flag
// defaults (-alpha 40 -cg-iters 3) by a single process continues under the
// coordinator, which records neither — and the other way round — landing on
// the uninterrupted run's bits.
func TestResumeAcrossTrainers(t *testing.T) {
	spec := DataSpec{Preset: "YMR4", Scale: 0.03, Seed: 9, TestFrac: 0}
	mx, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	single := core.Config{K: 6, Lambda: 0.1, Seed: 9, UseRecommended: true, Alpha: 40, CGIters: 3,
		CheckpointDir: "ckpts"}
	dist := TrainerConfig{Workers: 2, K: 6, Lambda: 0.1, Seed: 9, UseRecommended: true,
		Data: spec, CheckpointDir: "ckpts"}
	straight := single
	straight.Iterations, straight.CheckpointDir = 2, ""
	ref, _, err := core.Train(mx, straight)
	if err != nil {
		t.Fatal(err)
	}

	fsys := checkpoint.NewMemFS()
	first := single
	first.Iterations, first.CheckpointFS = 1, fsys
	if _, _, err := core.Train(mx, first); err != nil {
		t.Fatal(err)
	}
	second := dist
	second.Iterations, second.CheckpointFS, second.Resume = 2, fsys, true
	m, info, err := Train(mx, second)
	if err != nil || info.ResumedFrom != 1 {
		t.Fatalf("single → distributed: %v (%+v)", err, info)
	}
	bitsEqual(t, "single → distributed X", m.X, ref.X)
	bitsEqual(t, "single → distributed Y", m.Y, ref.Y)

	fsys = checkpoint.NewMemFS()
	dfirst := dist
	dfirst.Iterations, dfirst.CheckpointFS = 1, fsys
	if _, _, err := Train(mx, dfirst); err != nil {
		t.Fatal(err)
	}
	ssecond := single
	ssecond.Iterations, ssecond.CheckpointFS, ssecond.Resume = 2, fsys, true
	sm, sinfo, err := core.Train(mx, ssecond)
	if err != nil || sinfo.ResumedFrom != 1 {
		t.Fatalf("distributed → single: %v (%+v)", err, sinfo)
	}
	bitsEqual(t, "distributed → single X", sm.X, ref.X)
	bitsEqual(t, "distributed → single Y", sm.Y, ref.Y)
}

// TestDistributedCheckpointsAreCountedAndTraced: the coordinator's
// checkpoint writes go through the one site core.Train's do, so they reach
// als_checkpoint_io_* and the run's trace.
func TestDistributedCheckpointsAreCountedAndTraced(t *testing.T) {
	spec := DataSpec{Preset: "YMR4", Scale: 0.02, Seed: 7, TestFrac: 0}
	mx, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	rec, reg := obs.NewTrainRecorder(), obs.NewRegistry()
	rec.Register(reg)
	tr := rtrace.New(rtrace.Config{Sample: 1, Slowest: -1})
	if _, _, err := Train(mx, TrainerConfig{
		Workers: 2, K: 4, Iterations: 2, Seed: 7, UseRecommended: true, Data: spec,
		CheckpointDir: "ckpts", CheckpointFS: checkpoint.NewMemFS(),
		Registry: reg, Obs: rec, Tracer: tr,
	}); err != nil {
		t.Fatal(err)
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if _, err := e2e.ValidateExposition(strings.NewReader(expo.String())); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`als_checkpoint_io_total{op="save",result="ok"} 2`,
		`als_checkpoint_io_bytes_total{op="save"} `,
		`als_dist_broadcast_bytes_total `,
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
	var root rtrace.SpanRecord
	names := map[string]int{}
	spans := tr.Snapshot()
	for _, sp := range spans {
		if sp.Name == "train" {
			root = sp
		}
	}
	for _, sp := range spans {
		if sp.Parent == root.ID {
			names[sp.Name]++
		}
	}
	if names["checkpoint.save"] != 2 || names["checkpoint.gc"] != 2 || names["iter1/x"] != 1 || names["iter2/y"] != 1 {
		t.Errorf("children of train: %v", names)
	}
}
