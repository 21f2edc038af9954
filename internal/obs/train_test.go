package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/e2e"
)

// driveRecorder simulates two half iterations with two workers, a loss
// point, and a checkpoint save.
func driveRecorder(r *TrainRecorder) {
	r.SetMeta("alstrain", "MVLE", 10, 0.1, 5)
	r.SetShape(100, 40, 800, 2, "tb+vec+fus", "implicit")
	for it := 1; it <= 1; it++ {
		for _, half := range []string{"X", "Y"} {
			r.RecordHalf(&Half{Name: half, Dur: 3 * time.Millisecond, Rows: 100, Workers: []WorkerShare{
				{Busy: 2 * time.Millisecond, Chunks: 3, Rows: 60, Stage: StageDur{0, 0, time.Millisecond, time.Millisecond}},
				{Busy: time.Millisecond, Chunks: 2, Rows: 40, Stage: StageDur{0, 0, time.Millisecond / 2, time.Millisecond / 2}},
			}})
		}
		r.RecordLoss(42.5)
		r.IterDone(it)
	}
	r.RecordCheckpoint("save", 3*time.Millisecond, 4096, nil)
}

func TestTrainRecorderMetrics(t *testing.T) {
	rec := NewTrainRecorder()
	reg := NewRegistry()
	rec.Register(reg)
	driveRecorder(rec)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if _, err := e2e.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("train metrics do not validate: %v\n%s", err, out)
	}
	for _, want := range []string{
		"als_train_iteration 1",
		"als_train_loss 42.5",
		`als_train_halves_total{half="X"} 1`,
		`als_train_halves_total{half="Y"} 1`,
		`als_train_rows_total{half="X"} 100`,
		`als_train_stage_seconds_total{stage="s1+s2",mode="implicit"}`,
		`als_train_stage_seconds_total{stage="s3",mode="implicit"}`,
		`als_train_worker_chunks_total{worker="0"} 6`,
		`als_train_worker_chunks_total{worker="1"} 4`,
		`als_train_worker_busy_seconds_total{worker="0"} 0.004`,
		`als_train_worker_idle_seconds_total{worker="0"} 0.002`,
		`als_train_worker_idle_seconds_total{worker="1"} 0.004`,
		`als_train_half_seconds_total{half="X"} 0.003`,
		`als_train_worker_rows_total{worker="1"} 80`,
		`als_checkpoint_io_bytes_total{op="save"} 4096`,
		`als_checkpoint_io_total{op="save",result="ok"} 1`,
		`als_train_info{program="alstrain",dataset="MVLE",variant="tb+vec+fus",mode="implicit",k="10",workers="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

func TestTrainRecorderRunInfo(t *testing.T) {
	rec := NewTrainRecorder()
	driveRecorder(rec)
	info := rec.RunInfo()
	if info.Meta.Dataset != "MVLE" || info.Meta.Variant != "tb+vec+fus" {
		t.Errorf("meta not merged: %+v", info.Meta)
	}
	if info.Iteration != 1 || info.Halves != 2 || info.Checkpoints != 1 {
		t.Errorf("progress = iter %d, halves %d, ckpts %d", info.Iteration, info.Halves, info.Checkpoints)
	}
	if info.LastLoss == nil || *info.LastLoss != 42.5 {
		t.Errorf("last loss = %v, want 42.5", info.LastLoss)
	}
	if info.StageSeconds["s3"] <= 0 {
		t.Errorf("stage totals missing s3: %v", info.StageSeconds)
	}
	// The payload must be JSON-serializable for /runinfo.
	if _, err := json.Marshal(info); err != nil {
		t.Fatalf("runinfo does not marshal: %v", err)
	}
}

// TestNilRecorderIsInert: every hook must be callable on a nil recorder so
// the disabled path needs no call-site guards.
func TestNilRecorderIsInert(t *testing.T) {
	var rec *TrainRecorder
	driveRecorder(rec)
	rec.Register(NewRegistry())
	_ = rec.RunInfo()
}
