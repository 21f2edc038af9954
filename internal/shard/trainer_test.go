package shard

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// Load materializes the training matrix the spec describes, as alstrain
// does: the dataset, minus the held-out fraction.
func (sp DataSpec) Load() (*sparse.Matrix, error) {
	ds, _, _, err := sp.Dataset()
	if err != nil {
		return nil, err
	}
	if sp.TestFrac <= 0 {
		return ds.Matrix, nil
	}
	train, _, err := dataset.Split(ds.Matrix, sp.TestFrac, sp.Seed+1)
	return train, err
}

func bitsEqual(t *testing.T, label string, got, want *linalg.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x (first bit difference)",
				label, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestDistributedBitIdentity pins the tentpole guarantee: a -workers 2..4
// run produces factors byte-identical to a single-process train with the
// same flags. Workers run in-process here; the exec path is covered by the
// dist-smoke lane.
func TestDistributedBitIdentity(t *testing.T) {
	spec := DataSpec{Preset: "YMR4", Scale: 0.03, Seed: 5, TestFrac: 0.1}
	mx, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	const k, iters = 8, 3
	const lambda = 0.07

	ref, _, err := core.Train(mx, core.Config{
		Platform: "host", K: k, Lambda: lambda, Iterations: iters,
		Seed: 5, UseRecommended: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 4} {
		m, info, err := Train(mx, TrainerConfig{
			Workers: workers, K: k, Lambda: lambda, Iterations: iters,
			Seed: 5, UseRecommended: true, Data: spec,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		bitsEqual(t, "X", m.X, ref.X)
		bitsEqual(t, "Y", m.Y, ref.Y)
		if info.BroadcastBytes <= 0 {
			t.Fatalf("workers=%d: broadcast bytes = %d", workers, info.BroadcastBytes)
		}
		if info.Workers != workers {
			t.Fatalf("info.Workers = %d, want %d", info.Workers, workers)
		}
	}
}

// TestDistributedResume restarts a distributed run from its checkpoints —
// with a different worker count — and still lands on the single-process
// factors: checkpoints carry the full assembled side, so the partition is
// free to change across restarts.
func TestDistributedResume(t *testing.T) {
	spec := DataSpec{Preset: "YMR4", Scale: 0.03, Seed: 9, TestFrac: 0}
	mx, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 6, 0.1
	dir := t.TempDir()

	if _, _, err := Train(mx, TrainerConfig{
		Workers: 2, K: k, Lambda: lambda, Iterations: 2, Seed: 9,
		UseRecommended: true, Data: spec, CheckpointDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	resumed, info, err := Train(mx, TrainerConfig{
		Workers: 3, K: k, Lambda: lambda, Iterations: 4, Seed: 9,
		UseRecommended: true, Data: spec, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.ResumedFrom != 2 {
		t.Fatalf("resumed from iteration %d, want 2", info.ResumedFrom)
	}

	ref, _, err := core.Train(mx, core.Config{
		Platform: "host", K: k, Lambda: lambda, Iterations: 4,
		Seed: 9, UseRecommended: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "X", resumed.X, ref.X)
	bitsEqual(t, "Y", resumed.Y, ref.Y)

	// A mismatched hyperparameter must refuse the checkpoint, exactly as
	// core.Train does.
	if _, _, err := Train(mx, TrainerConfig{
		Workers: 2, K: k, Lambda: 0.2, Iterations: 4, Seed: 9,
		UseRecommended: true, Data: spec, CheckpointDir: dir, Resume: true,
	}); err == nil {
		t.Fatal("resumed across a lambda change")
	}
}
