package serve

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/sparse"
)

func randomDense(rng *rand.Rand, rows, cols int) *linalg.Dense {
	d := linalg.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.Float32()*2 - 1
	}
	return d
}

func randomRated(rng *rand.Rand, users, items, perUser int) *sparse.CSR {
	coo := sparse.NewCOO(users, items)
	for u := 0; u < users; u++ {
		for j := 0; j < perUser; j++ {
			coo.Append(u, rng.Intn(items), 4)
		}
	}
	coo.Rows, coo.Cols = users, items
	m, err := sparse.NewCSR(coo)
	if err != nil {
		panic(err)
	}
	return m
}

// topNSort is the full-scan oracle: it scores every unrated item, sorts the
// whole catalog (higher score first, lower item first among equals) and
// takes the first n.
func topNSort(r *sparse.CSR, x, y *linalg.Dense, u, n int) []int {
	cols, _ := r.Row(u)
	var all []metrics.Scored
	for i := 0; i < y.Rows; i++ {
		if !slices.Contains(cols, int32(i)) {
			all = append(all, metrics.Scored{Item: i, Score: linalg.Dot(x.Row(u), y.Row(i))})
		}
	}
	slices.SortFunc(all, func(a, b metrics.Scored) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Item, b.Item)
	})
	out := make([]int, min(n, len(all)))
	for i := range out {
		out[i] = all[i].Item
	}
	return out
}

// TestScorerMatchesTopN: the scan must select exactly what the
// single-threaded heap and the full-sort oracle select, for any n and
// exclusion set, with the screen on and off, and score every item bit for
// bit as linalg.Dot does.
func TestScorerMatchesTopN(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const users, items, k = 4, 3000, 8
	x := randomDense(rng, users, k)
	y := randomDense(rng, items, k)
	rated := randomRated(rng, users, items, 40)

	for _, screen := range []*metrics.Screen{metrics.NewScreen(y), nil} {
		for _, n := range []int{1, 7, 50, items + 10} {
			for u := 0; u < users; u++ {
				scored, rows, err := scanTopN(context.Background(), x.Row(u), y, screen, RatedExcluder(rated, u), n)
				if err != nil {
					t.Fatalf("screen=%v n=%d: %v", screen != nil, n, err)
				}
				// A heap that never fills scores every row, and so does a
				// scan without a screen; a small heap leaves most rows to
				// the screen, where the build has one.
				if (n > items || screen == nil) && rows != items || (n < 50 && rows > items/2 && screen != nil) || rows < min(n, items) {
					t.Fatalf("screen=%v n=%d u=%d: %d of %d rows scored", screen != nil, n, u, rows, items)
				}
				got := make([]int, len(scored))
				for i, s := range scored {
					got[i] = s.Item
					// The blocked kernel must not move a bit of any score.
					if ref := linalg.Dot(x.Row(u), y.Row(s.Item)); math.Float64bits(s.Score) != math.Float64bits(ref) {
						t.Fatalf("screen=%v n=%d u=%d item %d: score %x, linalg.Dot %x", screen != nil, n, u, s.Item, math.Float64bits(s.Score), math.Float64bits(ref))
					}
				}
				want := metrics.TopN(rated, x, y, u, n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("screen=%v n=%d u=%d: scan %v != heap %v", screen != nil, n, u, got, want)
				}
				wantSort := topNSort(rated, x, y, u, n)
				if !reflect.DeepEqual(want, wantSort) {
					t.Fatalf("n=%d u=%d: heap %v != full sort %v", n, u, want, wantSort)
				}
			}
		}
	}
}

func TestScorerCanceledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	y := randomDense(rng, 5000, 4)
	x := []float32{1, 0, 0, 0}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, rows, err := scanTopN(ctx, x, y, metrics.NewScreen(y), nil, 10); err != context.Canceled || out != nil || rows != 0 {
		t.Fatalf("canceled context: %d items, %d rows scored, err %v", len(out), rows, err)
	}
}

// TestScorerTopNMidScanDeadline: a context that expires while the scan is
// inside its first slab stops it at the slab boundary with the context's
// error, as the ranked path does.
func TestScorerTopNMidScanDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	y := randomDense(rng, 2*checkEvery+10, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	last := -1
	expire := func(i int) bool { // consulted for every candidate while the heap is not full
		cancel()
		last = i
		return false
	}
	out, _, err := scanTopN(ctx, []float32{1, 1, 1, 1}, y, metrics.NewScreen(y), expire, y.Rows+1)
	if err != context.Canceled || out != nil {
		t.Fatalf("mid-scan cancel: %d items, err %v", len(out), err)
	}
	if last != checkEvery-1 {
		t.Errorf("scan went on to row %d after the cancel, want it to stop at the slab end (%d)", last, checkEvery-1)
	}
}

// TestScorerWideQuery: a query wider than scanStackK takes the heap-backed
// widening and still scores exactly.
func TestScorerWideQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const k = scanStackK + 2
	y := randomDense(rng, 600, k)
	x := randomDense(rng, 1, k).Row(0)
	scored, _, err := scanTopN(context.Background(), x, y, metrics.NewScreen(y), nil, 5)
	if err != nil || len(scored) != 5 {
		t.Fatalf("%d items, %v", len(scored), err)
	}
	ref := metrics.NewTopK(5)
	for i := 0; i < y.Rows; i++ {
		ref.Push(i, linalg.Dot(x, y.Row(i)))
	}
	if want := ref.Drain(); !reflect.DeepEqual(scored, want) {
		t.Fatalf("k=%d: got %v, want %v", k, scored, want)
	}
}

func TestScorerDegenerate(t *testing.T) {
	x := []float32{1, 0, 0, 0}
	y := linalg.NewDense(0, 4)
	if out, _, err := scanTopN(context.Background(), x, y, nil, nil, 5); err != nil || out != nil {
		t.Fatalf("empty catalog: %v %v", out, err)
	}
	if out, _, err := scanTopN(context.Background(), x, nil, nil, nil, 5); err != nil || out != nil {
		t.Fatalf("nil catalog: %v %v", out, err)
	}
	y = linalg.NewDense(3, 4)
	if out, _, err := scanTopN(context.Background(), x, y, nil, nil, 0); err != nil || out != nil {
		t.Fatalf("n=0: %v %v", out, err)
	}
	if out, _, err := scanRanked(context.Background(), x, nil, nil, 5); err != nil || out != nil {
		t.Fatalf("nil ranked catalog: %v %v", out, err)
	}
}

// TestRatedExcluder holds both rated-set types to the same cases: a CSR
// (the bench's offline oracle passes one) and the coded set a snapshot
// holds.
func TestRatedExcluder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rated := randomRated(rng, 3, 200, 30)
	coded := sparse.NewGaps(rated)
	for name, ex := range map[string]func(u int) func(int) bool{
		"csr":  func(u int) func(int) bool { return RatedExcluder(rated, u) },
		"gaps": func(u int) func(int) bool { return RatedExcluder(coded, u) },
	} {
		for u := 0; u < 3; u++ {
			ex := ex(u)
			cols, _ := rated.Row(u)
			set := map[int]bool{}
			for _, c := range cols {
				set[int(c)] = true
			}
			for i := 0; i < 200; i++ {
				if ex(i) != set[i] {
					t.Fatalf("%s: u=%d item=%d: excluder %v, want %v", name, u, i, ex(i), set[i])
				}
			}
		}
		if ex(0)(-1) || ex(0)(200) {
			t.Fatalf("%s: an index outside the catalog is excluded", name)
		}
		if ex(99) != nil || ex(-1) != nil {
			t.Fatalf("%s: out-of-range user should yield nil excluder", name)
		}
	}
	if RatedExcluder(sparse.NewGaps(&sparse.CSR{NumRows: 1, NumCols: 200, RowPtr: []int64{0, 0}}), 0) != nil {
		t.Fatal("an empty coded row should yield nil excluder")
	}
	if sortedExcluder(nil) != nil || sortedExcluder([]int32{}) != nil {
		t.Fatal("an empty list should yield nil excluder")
	}
	// Typed nils, as a snapshot without a rated set hands them over.
	if RatedExcluder((*sparse.CSR)(nil), 0) != nil || RatedExcluder((*sparse.Gaps)(nil), 0) != nil {
		t.Fatal("nil matrix should yield nil excluder")
	}
}
