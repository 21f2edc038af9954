package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// foldInUser solves the factor of a user not present at training from their
// ratings against m's frozen item factors, as a server's fold-in does:
// CheckFoldIn, linalg.GramRHSFused over Y's rows, SolveFoldIn.
func foldInUser(m *Model, items []int32, ratings []float32, lambda float32) ([]float32, error) {
	if err := CheckFoldIn(items, ratings, m.Y.Rows); err != nil {
		return nil, err
	}
	packed, xu := make([]float32, linalg.PackedLen(m.K)), make([]float32, m.K)
	linalg.GramRHSFused(m.Y.Data, m.K, items, ratings, packed, xu)
	return SolveFoldIn(packed, xu, m.K, lambda)
}

func TestFoldInRejectsDuplicateItems(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A duplicated item would be double-counted in the Gram matrix,
	// silently over-weighting it; it must be rejected instead.
	if _, err := foldInUser(model, []int32{2, 5, 2}, []float32{4, 3, 4}, 0.1); err == nil {
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
	if _, err := foldInUser(model, []int32{1}, []float32{nan}, 0.1); err == nil {
		t.Fatal("accepted NaN rating")
	}
	inf := float32(math.Inf(1))
	if _, err := foldInUser(model, []int32{1}, []float32{inf}, 0.1); err == nil {
		t.Fatal("accepted +Inf rating")
	}
	if _, err := foldInUser(model, []int32{1}, []float32{-inf}, 0.1); err == nil {
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
		xu, err := foldInUser(model, cols, vals, lambda)
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

// TestFoldInUser: a held-out user folded in against frozen item factors
// must predict their own ratings about as well as trained users do.
func TestFoldInUser(t *testing.T) {
	mx := testMatrix(t)
	// Train without the last user's ratings.
	last := mx.Rows() - 1
	for mx.R.RowNNZ(last) < 4 {
		last--
	}
	coo := sparse.NewCOO(mx.Rows(), mx.Cols())
	for u := 0; u < mx.Rows(); u++ {
		if u == last {
			continue
		}
		cols, vals := mx.R.Row(u)
		for j, c := range cols {
			coo.Append(u, int(c), vals[j])
		}
	}
	coo.Rows, coo.Cols = mx.Rows(), mx.Cols()
	train, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := Train(train, Config{K: 8, Lambda: 0.1, Iterations: 6, Seed: 2, WeightedLambda: true})
	if err != nil {
		t.Fatal(err)
	}
	cols, vals := mx.R.Row(last)
	xu, err := foldInUser(model, cols, vals, 0.1*float32(len(cols)))
	if err != nil {
		t.Fatal(err)
	}
	var se float64
	for j, c := range cols {
		d := linalg.Dot(xu, model.Y.Row(int(c))) - float64(vals[j])
		se += d * d
	}
	rmse := math.Sqrt(se / float64(len(cols)))
	if math.IsNaN(rmse) || rmse > 1.5 {
		t.Fatalf("fold-in RMSE on own ratings = %g", rmse)
	}
}

func TestFoldInErrors(t *testing.T) {
	mx := testMatrix(t)
	model, _, err := Train(mx, Config{K: 4, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foldInUser(model, []int32{0, 1}, []float32{5}, 0.1); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
	if _, err := foldInUser(model, []int32{int32(mx.Cols()) + 5}, []float32{5}, 0.1); err == nil {
		t.Fatal("accepted out-of-range item")
	}
	x, err := foldInUser(model, nil, nil, 0.1)
	if err != nil || len(x) != 4 {
		t.Fatalf("empty fold-in: %v %v", x, err)
	}
}

// spdSystem is a k×k packed Gram term and right-hand side as a fold-in
// accumulates them: G = Σ y·yᵀ over 2k random rows, positive definite.
func spdSystem(rng *rand.Rand, k int) (packed, rhs []float32) {
	packed, rhs = make([]float32, linalg.PackedLen(k)), make([]float32, k)
	rows, items, ratings := make([]float32, 2*k*k), make([]int32, 2*k), make([]float32, 2*k)
	for i := range rows {
		rows[i] = rng.Float32()*2 - 1
	}
	for i := range items {
		items[i], ratings[i] = int32(i), float32(rng.Intn(5)+1)
	}
	linalg.GramRHSFused(rows, k, items, ratings, packed, rhs)
	return packed, rhs
}

// TestSolveFoldInCopiesOnce: a solve that Cholesky accepts allocates one
// array, the copy of packed the fallback would factor; rhs is solved in
// place.
func TestSolveFoldInCopiesOnce(t *testing.T) {
	const k = 32
	packed, rhs := spdSystem(rand.New(rand.NewSource(71)), k)
	p, b := make([]float32, len(packed)), make([]float32, k)
	allocs := testing.AllocsPerRun(20, func() {
		copy(p, packed)
		copy(b, rhs)
		if _, err := SolveFoldIn(p, b, k, 0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("SolveFoldIn at k=%d allocates %v times, want 1", k, allocs)
	}
}

// TestSolveFoldInFallsBackToLDL: an indefinite system, which packed
// Cholesky rejects, is solved bit for bit as LDLSolvePacked solves
// untouched copies of it — a rejected Cholesky leaves rhs as it was.
func TestSolveFoldInFallsBackToLDL(t *testing.T) {
	const k, lambda = 32, 0.1
	rng := rand.New(rand.NewSource(73))
	packed, rhs := make([]float32, linalg.PackedLen(k)), make([]float32, k)
	for i := range packed {
		packed[i] = rng.Float32()*2 - 1
	}
	for i := range rhs {
		rhs[i] = rng.Float32()*2 - 1
	}
	wantP, want := slices.Clone(packed), slices.Clone(rhs)
	linalg.AddDiagPacked(wantP, k, lambda)
	if err := linalg.CholeskyPacked(slices.Clone(wantP), k); err == nil {
		t.Fatal("packed Cholesky accepts the indefinite input; the test needs one it rejects")
	}
	if err := linalg.LDLSolvePacked(wantP, k, want, make([]float64, k)); err != nil {
		t.Fatal(err)
	}
	got, err := SolveFoldIn(packed, rhs, k, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		t.Errorf("fallback solve %v, LDLSolvePacked on untouched copies %v", got, want)
	}
}
