package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// tinyProblem builds a 2x2 rating matrix and exact rank-1 factors so error
// metrics have closed-form values.
func tinyProblem(t *testing.T) (*sparse.CSR, *linalg.Dense, *linalg.Dense) {
	t.Helper()
	coo := sparse.NewCOO(2, 2)
	coo.Append(0, 0, 2)
	coo.Append(0, 1, 4)
	coo.Append(1, 0, 1)
	m, err := sparse.NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	// x = [[2],[1]], y = [[1],[2]] -> predictions: (0,0)=2 (0,1)=4 (1,0)=1.
	x := linalg.NewDenseFrom(2, 1, []float32{2, 1})
	y := linalg.NewDenseFrom(2, 1, []float32{1, 2})
	return m, x, y
}

func TestRMSEPerfectFit(t *testing.T) {
	m, x, y := tinyProblem(t)
	if got := RMSE(m, x, y); got != 0 {
		t.Fatalf("RMSE = %g, want 0", got)
	}
	if got := MAE(m, x, y); got != 0 {
		t.Fatalf("MAE = %g, want 0", got)
	}
}

func TestRMSEKnownError(t *testing.T) {
	m, x, y := tinyProblem(t)
	x.Data[0] = 3 // predictions become 3 and 6: errors 1 and 2 on row 0.
	want := math.Sqrt((1.0 + 4.0 + 0.0) / 3.0)
	if got := RMSE(m, x, y); math.Abs(got-want) > 1e-12 {
		t.Fatalf("RMSE = %g, want %g", got, want)
	}
	wantMAE := (1.0 + 2.0 + 0.0) / 3.0
	if got := MAE(m, x, y); math.Abs(got-wantMAE) > 1e-12 {
		t.Fatalf("MAE = %g, want %g", got, wantMAE)
	}
}

func TestRMSEEmptyIsNaN(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	m, err := sparse.NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDense(2, 1)
	y := linalg.NewDense(2, 1)
	if got := RMSE(m, x, y); !math.IsNaN(got) {
		t.Fatalf("RMSE on empty = %g, want NaN", got)
	}
	if got := MAE(m, x, y); !math.IsNaN(got) {
		t.Fatalf("MAE on empty = %g, want NaN", got)
	}
}

func TestRegularizedLoss(t *testing.T) {
	m, x, y := tinyProblem(t)
	// Perfect fit: loss is pure regularization.
	// Plain: λ(|x_0|²+|x_1|²+|y_0|²+|y_1|²) = λ(4+1+1+4) = 10λ.
	if got := RegularizedLoss(m, x, y, 0.5, false); math.Abs(got-5) > 1e-9 {
		t.Fatalf("plain loss = %g, want 5", got)
	}
	// Weighted: λ(2·4 + 1·1 + 2·1 + 1·4) = 15λ.
	if got := RegularizedLoss(m, x, y, 0.5, true); math.Abs(got-7.5) > 1e-9 {
		t.Fatalf("weighted loss = %g, want 7.5", got)
	}
}

func TestTopNExcludesRated(t *testing.T) {
	m, x, y := tinyProblem(t)
	// User 1 rated item 0 only; top-1 must be item 1.
	got := TopN(m, x, y, 1, 5)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("TopN = %v, want [1]", got)
	}
}

func TestTopNOrdering(t *testing.T) {
	coo := sparse.NewCOO(1, 4)
	m, err := sparse.NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDenseFrom(1, 1, []float32{1})
	y := linalg.NewDenseFrom(4, 1, []float32{0.3, 0.9, 0.1, 0.9})
	got := TopN(m, x, y, 0, 3)
	// Scores: item1=0.9, item3=0.9 (tie -> lower index first), item0=0.3.
	want := []int{1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopN = %v, want %v", got, want)
		}
	}
}

func TestPrecisionRecallBounds(t *testing.T) {
	train := sparse.NewCOO(2, 5)
	train.Append(0, 0, 5)
	trainM, err := sparse.NewCSR(train)
	if err != nil {
		t.Fatal(err)
	}
	test := sparse.NewCOO(2, 5)
	test.Append(0, 1, 5) // relevant
	test.Append(0, 2, 1) // not relevant at threshold 4
	testM, err := sparse.NewCSR(test)
	if err != nil {
		t.Fatal(err)
	}
	x := linalg.NewDenseFrom(2, 1, []float32{1, 1})
	y := linalg.NewDenseFrom(5, 1, []float32{0.1, 0.9, 0.5, 0.2, 0.3})
	p, r := PrecisionRecallAtN(trainM, testM, x, y, 1, 4)
	// Top-1 unrated item for user 0 is item 1, which is relevant.
	if p != 1 || r != 1 {
		t.Fatalf("precision=%g recall=%g, want 1,1", p, r)
	}
	p, r = PrecisionRecallAtN(trainM, testM, x, y, 2, 4)
	if p != 0.5 || r != 1 {
		t.Fatalf("n=2: precision=%g recall=%g, want 0.5,1", p, r)
	}
}

func TestPrecisionRecallNoRelevant(t *testing.T) {
	train := sparse.NewCOO(1, 3)
	trainM, _ := sparse.NewCSR(train)
	test := sparse.NewCOO(1, 3)
	testM, _ := sparse.NewCSR(test)
	x := linalg.NewDense(1, 1)
	y := linalg.NewDense(3, 1)
	p, r := PrecisionRecallAtN(trainM, testM, x, y, 2, 4)
	if !math.IsNaN(p) || !math.IsNaN(r) {
		t.Fatalf("expected NaN for empty relevance, got %g %g", p, r)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Dataset: "NTFX", Platform: "GPU", Variant: "tb+loc", Seconds: 1.5, RMSE: 0.9}
	if s.String() == "" {
		t.Fatal("empty Summary string")
	}
}

// TestTopNMatchesFullSort: property check of the heap selection against a
// straightforward full sort.
func TestTopNMatchesFullSort(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		items := rng.Intn(200) + 1
		n := int(n8)%20 + 1
		y := linalg.NewDense(items, 3)
		for i := range y.Data {
			y.Data[i] = rng.Float32()*2 - 1
		}
		x := linalg.NewDenseFrom(1, 3, []float32{rng.Float32(), rng.Float32(), rng.Float32()})
		coo := sparse.NewCOO(1, items)
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.3 {
				coo.Append(0, i, 5)
			}
		}
		coo.Rows, coo.Cols = 1, items
		m, err := sparse.NewCSR(coo)
		if err != nil {
			return false
		}
		got := TopN(m, x, y, 0, n)

		// Reference: full sort.
		type sc struct {
			item  int
			score float64
		}
		var all []sc
		rated := map[int]bool{}
		cols, _ := m.Row(0)
		for _, c := range cols {
			rated[int(c)] = true
		}
		for i := 0; i < items; i++ {
			if rated[i] {
				continue
			}
			all = append(all, sc{i, linalg.Dot(x.Row(0), y.Row(i))})
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].score != all[b].score {
				return all[a].score > all[b].score
			}
			return all[a].item < all[b].item
		})
		want := n
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if got[i] != all[i].item {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopNZero(t *testing.T) {
	m, x, y := tinyProblem(t)
	if got := TopN(m, x, y, 0, 0); len(got) != 0 {
		t.Fatalf("TopN(0) = %v", got)
	}
}

// ImplicitLoss collapses the dense m×n confidence sum with the Gram trick;
// pin it against the brute-force double loop on a small random problem.
func TestImplicitLossMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const m, n, k = 12, 9, 4
	coo := sparse.NewCOO(m, n)
	for u := 0; u < m; u++ {
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.3 {
				coo.Append(u, i, float32(rng.Intn(5)+1))
			}
		}
	}
	r, err := sparse.NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}
	x, y := linalg.NewDense(m, k), linalg.NewDense(n, k)
	for i := range x.Data {
		x.Data[i] = rng.Float32() - 0.5
	}
	for i := range y.Data {
		y.Data[i] = rng.Float32() - 0.5
	}
	const alpha, lambda = 7.5, 0.3

	// Brute force: every (u,i) pair with c=1+α·r, p=1 for observed.
	obs := make(map[[2]int]float64)
	for u := 0; u < m; u++ {
		cols, vals := r.Row(u)
		for z, c := range cols {
			obs[[2]int{u, int(c)}] = float64(vals[z])
		}
	}
	var want float64
	for u := 0; u < m; u++ {
		for i := 0; i < n; i++ {
			s := linalg.Dot(x.Row(u), y.Row(i))
			conf, pref := 1.0, 0.0
			if v, ok := obs[[2]int{u, i}]; ok {
				conf, pref = 1+alpha*v, 1
			}
			d := pref - s
			want += conf * d * d
		}
	}
	for u := 0; u < m; u++ {
		want += lambda * linalg.Nrm2Sq(x.Row(u))
	}
	for i := 0; i < n; i++ {
		want += lambda * linalg.Nrm2Sq(y.Row(i))
	}

	got := ImplicitLoss(r, x, y, alpha, lambda)
	if d := math.Abs(got - want); d > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("ImplicitLoss = %g, brute force = %g (diff %g)", got, want, d)
	}
}
