package core

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestFoldInRejectsDuplicateItems(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A duplicated item would be double-counted in the Gram matrix,
	// silently over-weighting it; it must be rejected instead.
	if _, err := model.FoldInUser([]int32{2, 5, 2}, []float32{4, 3, 4}, 0.1); err == nil {
		t.Fatal("accepted duplicate item IDs")
	}
}

func TestFoldInRejectsNonFiniteRatings(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	if _, err := model.FoldInUser([]int32{1}, []float32{nan}, 0.1); err == nil {
		t.Fatal("accepted NaN rating")
	}
	inf := float32(math.Inf(1))
	if _, err := model.FoldInUser([]int32{1}, []float32{inf}, 0.1); err == nil {
		t.Fatal("accepted +Inf rating")
	}
	if _, err := model.FoldInUser([]int32{1}, []float32{-inf}, 0.1); err == nil {
		t.Fatal("accepted -Inf rating")
	}
}

// TestFoldInApproximatesTrainedFactor: folding a *training* user's own
// ratings back in against the frozen Y must land close to that user's
// trained factor — fold-in solves the same per-row normal equations the X
// half-update does, differing only by the final Y half-update between them.
func TestFoldInApproximatesTrainedFactor(t *testing.T) {
	mx := testMatrix(t)
	const lambda = 0.1
	model, _, err := Train(mx, Config{K: 6, Lambda: lambda, Iterations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for u := 0; u < mx.Rows() && checked < 5; u++ {
		if mx.R.RowNNZ(u) < 10 {
			continue
		}
		checked++
		cols, vals := mx.R.Row(u)
		xu, err := model.FoldInUser(cols, vals, lambda)
		if err != nil {
			t.Fatal(err)
		}
		trained := model.X.Row(u)
		var dot, na, nb float64
		for j := range xu {
			dot += float64(xu[j]) * float64(trained[j])
			na += float64(xu[j]) * float64(xu[j])
			nb += float64(trained[j]) * float64(trained[j])
		}
		cos := dot / math.Sqrt(na*nb)
		rel := 0.0
		for j := range xu {
			d := float64(xu[j] - trained[j])
			rel += d * d
		}
		rel = math.Sqrt(rel / nb)
		if cos < 0.99 || rel > 0.15 {
			t.Fatalf("user %d: fold-in diverges from trained factor: cos=%.4f rel=%.4f", u, cos, rel)
		}
	}
	if checked == 0 {
		t.Fatal("no user with enough ratings to check")
	}
}

// TestModelMetaSaveLoadRoundTrip: the version label rides in the model
// block, λ and its convention in the checkpoint header; a model with
// neither label nor ID tables keeps the v3 layout and loads with a zero
// meta again.
func TestModelMetaSaveLoadRoundTrip(t *testing.T) {
	cfg := Config{K: 2, Lambda: 0.05, WeightedLambda: true}
	m := &Model{K: 2, X: linalg.NewDense(3, 2), Y: linalg.NewDense(4, 2),
		Meta: Meta{Version: "2026-08-04/a", Lambda: 0.05, WeightedLambda: true}}
	file, err := modelFile(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadModel(file)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != m.Meta {
		t.Fatalf("meta round trip: %+v != %+v", got.Meta, m.Meta)
	}

	m2 := &Model{K: 2, X: linalg.NewDense(3, 2), Y: linalg.NewDense(4, 2)}
	file, err = modelFile(Config{K: 2}, m2)
	if err != nil {
		t.Fatal(err)
	}
	if file[8] != 3 { // the low byte of the format version, after the magic
		t.Fatalf("a model without label or IDs wrote format %d, want 3", file[8])
	}
	got2, err := loadModel(file)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Meta != (Meta{}) {
		t.Fatalf("zero meta round trip: %+v", got2.Meta)
	}
}

func TestTrainRecordsMeta(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Lambda: 0.2, Iterations: 1, Seed: 1, WeightedLambda: true})
	if err != nil {
		t.Fatal(err)
	}
	if model.Meta.Lambda != 0.2 || !model.Meta.WeightedLambda {
		t.Fatalf("trained meta = %+v", model.Meta)
	}
}
