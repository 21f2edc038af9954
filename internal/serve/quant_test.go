package serve

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/quant"
)

// randomModel builds a model with dense random factors in [-1, 1).
func randomModel(rng *rand.Rand, users, items, k int) *core.Model {
	return &core.Model{K: k, X: randomDense(rng, users, k), Y: randomDense(rng, items, k)}
}

// TestScorerTopNQuantMatchesSequential holds the slab-scanned, norm-pruned
// scanRanked item-for-item and score-for-score identical to
// the sequential natural-order quant.TopN reference, including exclusion
// and the lower-index tie-break, and checks the reported row count.
func TestScorerTopNQuantMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	y := linalg.NewDense(1100, 6) // several rankedSlab slabs
	for i := range y.Data {
		y.Data[i] = float32(rng.NormFloat64())
	}
	// A block of identical rows forces exact ties between distant rows.
	copy(y.Row(700), y.Row(10))
	copy(y.Row(701), y.Row(10))
	x := make([]float32, 6)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	excluded := func(i int) bool { return i%13 == 0 }

	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		q, err := quant.EncodeDense(y, prec)
		if err != nil {
			t.Fatal(err)
		}
		ranked := quant.Rank(q)
		for _, n := range []int{1, 10, 50} {
			got, rows, err := scanRanked(context.Background(), x, ranked, excluded, n)
			if err != nil {
				t.Fatal(err)
			}
			// Slabs can only end the scan at the same block or earlier.
			if _, seq := ranked.TopN(x, excluded, n); rows < n || rows > seq {
				t.Errorf("%v n=%d: slab scan scored %d rows, sequential ranked scan %d", prec, n, rows, seq)
			}
			want := q.TopN(x, excluded, n)
			if len(got) != len(want) {
				t.Fatalf("%v n=%d: %d items, want %d", prec, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v n=%d rank %d: got %+v, want %+v", prec, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScorerTopNRankedDeadline: a deadline that expires while the scan is
// between slabs aborts it with the context's error, and an already expired
// one scores nothing.
func TestScorerTopNRankedDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q, err := quant.EncodeDense(randomDense(rng, 4*rankedSlab, 4), quant.I8)
	if err != nil {
		t.Fatal(err)
	}
	ranked := quant.Rank(q)

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	expire := func(int) bool { // the sink consults it from inside the first slab
		if calls++; calls == 1 {
			cancel()
		}
		return false
	}
	// n > rows: the heap never fills, so nothing is pruned and the scan
	// would run all four slabs.
	out, rows, err := scanRanked(ctx, []float32{1, 1, 1, 1}, ranked, expire, ranked.Rows+1)
	if err != context.Canceled || out != nil {
		t.Fatalf("mid-scan cancel: %d items, err %v", len(out), err)
	}
	if rows != rankedSlab {
		t.Errorf("scan went on for %d rows after the cancel, want it to stop at the slab end (%d)", rows, rankedSlab)
	}
	if out, rows, err := scanRanked(ctx, []float32{1, 1, 1, 1}, ranked, nil, 5); err != context.Canceled || out != nil || rows != 0 {
		t.Fatalf("canceled before the scan: %d items, %d rows scored, err %v", len(out), rows, err)
	}
}

// naturalOrder is the reference encoding of m.Y: what the snapshot's
// ranked matrix was built from, scanned in item order without pruning.
func naturalOrder(t *testing.T, m *core.Model, prec quant.Precision) *quant.Matrix {
	t.Helper()
	q, err := quant.EncodeDense(m.Y, prec)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRecommendQuantized serves the same model at every precision and
// checks the responses match the sequential quantized reference exactly,
// that /v1/model and /metrics report the precision, and that the
// max-abs-error gauge appears for quantized snapshots.
func TestRecommendQuantized(t *testing.T) {
	const users, items, k = 3, 400, 5
	rng := rand.New(rand.NewSource(31))
	m := randomModel(rng, users, items, k)
	for _, prec := range []quant.Precision{quant.F32, quant.F16, quant.I8} {
		s, ts := newTestServer(t, Config{})
		s.SetPrecision(prec)
		sn := s.Swap(m, nil, "q1")
		if sn.Precision != prec || (prec != quant.F32) != (sn.QY != nil) {
			t.Fatalf("%v: snapshot precision %v, QY %v", prec, sn.Precision, sn.QY)
		}

		var mr ModelResponse
		if code := getJSON(t, ts.URL+"/v1/model", &mr); code != 200 {
			t.Fatalf("%v: /v1/model HTTP %d", prec, code)
		}
		if mr.Precision != prec.String() {
			t.Fatalf("%v: /v1/model precision %q", prec, mr.Precision)
		}

		var resp RecommendResponse
		if code := getJSON(t, ts.URL+"/v1/recommend?user=1&n=7", &resp); code != 200 {
			t.Fatalf("%v: HTTP %d", prec, code)
		}
		if len(resp.Items) != 7 {
			t.Fatalf("%v: %d items", prec, len(resp.Items))
		}
		if prec != quant.F32 {
			want := naturalOrder(t, m, prec).TopN(m.X.Row(1), nil, 7)
			for i, it := range resp.Items {
				if it.Item != want[i].Item || it.Score != want[i].Score {
					t.Fatalf("%v rank %d: got %+v, want %+v", prec, i, it, want[i])
				}
			}
		}

		var sb strings.Builder
		if err := s.Telemetry().Registry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		metrics := sb.String()
		if !strings.Contains(metrics, `als_scorer_precision{precision="`+prec.String()+`"} 1`) {
			t.Errorf("%v: missing precision gauge in metrics:\n%s", prec, metrics)
		}
		if got := strings.Contains(metrics, "als_quant_max_abs_error"); got != (prec != quant.F32) {
			t.Errorf("%v: max-abs-error gauge present=%v", prec, got)
		}
		if !strings.Contains(metrics, `als_scan_seconds_count{precision="`+prec.String()+`"} 1`) {
			t.Errorf("%v: scan histogram did not record the request:\n%s", prec, metrics)
		}
	}
}

// TestFoldInQuantized: fold-in keeps solving the user factor in float32
// against the original Y, and only the final top-N scan runs quantized —
// so the response must match scanning the quantized matrix with the
// float32 fold-in solution.
func TestFoldInQuantized(t *testing.T) {
	const users, items, k = 3, 300, 4
	rng := rand.New(rand.NewSource(37))
	m := randomModel(rng, users, items, k)
	f32srv, f32ts := newTestServer(t, Config{})
	f32srv.Swap(m, nil, "v")
	req := FoldInRequest{Items: []int32{5, 90, 211}, Ratings: []float32{5, 3, 4}, N: 6}
	var f32resp FoldInResponse
	if code := postJSON(t, f32ts.URL+"/v1/foldin", req, &f32resp); code != 200 {
		t.Fatalf("f32 fold-in HTTP %d", code)
	}

	s, ts := newTestServer(t, Config{})
	s.SetPrecision(quant.I8)
	sn := s.Swap(m, nil, "v")
	var resp FoldInResponse
	if code := postJSON(t, ts.URL+"/v1/foldin", req, &resp); code != 200 {
		t.Fatalf("i8 fold-in HTTP %d", code)
	}
	// Same float32 solve, then the quantized scan: reproduce it directly.
	xu, err := m.FoldInUser(req.Items, req.Ratings, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rated := map[int]bool{5: true, 90: true, 211: true}
	want := naturalOrder(t, m, sn.Precision).TopN(xu, func(i int) bool { return rated[i] }, 6)
	if len(resp.Items) != len(want) {
		t.Fatalf("%d items, want %d", len(resp.Items), len(want))
	}
	for i, it := range resp.Items {
		if it.Item != want[i].Item || it.Score != want[i].Score {
			t.Fatalf("rank %d: got %+v, want %+v", i, it, want[i])
		}
	}
	// The quantized ranking should still broadly agree with float32.
	if overlap := itemOverlap(resp.Items, f32resp.Items); overlap < 4 {
		t.Errorf("i8 fold-in shares only %d of 6 items with f32", overlap)
	}
}

func itemOverlap(a, b []RecItem) int {
	in := make(map[int]bool, len(a))
	for _, it := range a {
		in[it.Item] = true
	}
	n := 0
	for _, it := range b {
		if in[it.Item] {
			n++
		}
	}
	return n
}

// TestCacheKeyPrecision: entries scored at different precisions must not
// answer for each other even when every other key component matches.
func TestCacheKeyPrecision(t *testing.T) {
	c := NewCache(8)
	base := cacheKey{version: "v", seq: 1, user: 2, n: 3, prec: quant.F32}
	c.Put(base, nil)
	quantized := base
	quantized.prec = quant.I8
	if _, ok := c.Get(quantized); ok {
		t.Fatal("i8 key hit the f32 entry")
	}
	if _, ok := c.Get(base); !ok {
		t.Fatal("f32 entry lost")
	}
}

// TestSwapReusesCheckpointEncoding: a model carrying quantized factors
// from a compressed checkpoint is installed without re-quantizing when the
// precision matches — the snapshot's ranked matrix scores with the
// checkpoint's payload bytes and reports its MaxAbsErr — and re-encoded
// when it does not. Either way the snapshot holds one quantized copy and
// the caller's model is left alone.
func TestSwapReusesCheckpointEncoding(t *testing.T) {
	const users, items, k = 2, 64, 3
	rng := rand.New(rand.NewSource(41))
	m := randomModel(rng, users, items, k)
	// A checkpoint's encoding is not what a fresh EncodeDense of the decoded
	// Y gives: perturb one element so reuse and re-encode tell apart.
	qy, err := quant.EncodeDense(m.Y, quant.I8)
	if err != nil {
		t.Fatal(err)
	}
	qy.I8[5*k]++
	qy.MaxAbsErr *= 3
	m.QY = qy

	var st Store
	st.SetPrecision(quant.I8)
	sn := st.Swap(m, nil, "a")
	if sn.QY == nil || sn.QY.Prec != quant.I8 || sn.QY.MaxAbsErr != qy.MaxAbsErr {
		t.Fatalf("matching precision: ranked copy %+v does not carry the checkpoint encoding", sn.QY)
	}
	x := m.X.Row(0)
	got, _ := sn.QY.TopN(x, nil, items)
	want := qy.TopN(x, nil, items)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("matching precision re-quantized: rank %d scores %+v, the checkpoint encoding %+v", i, got[i], want[i])
		}
	}
	if sn.Model.QY != nil {
		t.Error("snapshot keeps the natural-order matrix alive next to the ranked copy")
	}
	if m.QY != qy || sn.Model.Y != m.Y || sn.Model.X != m.X {
		t.Error("swap mutated the caller's model or copied its factors, or dropped a Y that is not its encoding's decode")
	}
	// That kept Y, not the encoding's decode, is what fold-in solves over.
	its, ratings := []int32{5, 0, 63}, []float32{4, 1, 2.5}
	xu, err := m.FoldInUser(its, ratings, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sn.foldIn(its, ratings, 0.1); err != nil || !sameBits(got, xu) {
		t.Errorf("fold-in over the kept Y = %v (%v), want %v", got, err, xu)
	}

	st.SetPrecision(quant.F16)
	sn = st.Swap(m, nil, "b")
	if sn.QY == nil || sn.QY.Prec != quant.F16 || sn.Model.QY != nil {
		t.Fatalf("mismatched precision not re-encoded: %+v", sn.QY)
	}
	st.SetPrecision(quant.F32)
	if sn := st.Swap(m, nil, "c"); sn.QY != nil || sn.Precision != quant.F32 || sn.Model.QY != nil {
		t.Fatal("f32 swap attached a quantized matrix")
	}
}

// TestScoreTopNAllocs pins what one request's scan allocates: the heap and
// the sorted top-N it returns, five allocations with or without the int16
// screen, and at i8 one more for the prepared query. The wide float32
// query and its screen levels stay on the caller's stack. A scan that fans
// out over goroutines allocates its tasks, per-task heaps and the merge on
// top (10–13 at f32, 11 at i8 on this input). The bounds hold at any
// GOMAXPROCS.
func TestScoreTopNAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randomModel(rng, 4, 5000, 16)
	f32 := New(Config{CacheSize: -1}).Swap(m, nil, "v")
	bare := *f32
	bare.Screen = nil
	s := New(Config{CacheSize: -1})
	s.SetPrecision(quant.I8)
	i8 := s.Swap(m, nil, "v")
	x := m.X.Row(1)
	excluded := func(i int) bool { return i%11 == 0 }
	ctx := context.Background()
	for _, c := range []struct {
		name string
		sn   *Snapshot
		max  float64
	}{{"f32-screened", f32, 5}, {"f32-unscreened", &bare, 5}, {"i8-ranked", i8, 6}} {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(50, func() {
				if out, err := s.ScoreTopN(ctx, c.sn, x, excluded, 10); err != nil || len(out) != 10 {
					t.Fatalf("%d items, %v", len(out), err)
				}
			})
			if allocs > c.max {
				t.Errorf("ScoreTopN allocates %v times per request, want at most %v", allocs, c.max)
			}
		})
	}
}

// TestScanRowsCounter: als_scan_rows_total splits every scanned snapshot's
// rows into scored and pruned, where the scan happens. A quantized server
// prunes on a catalog with popularity-shaped norms, a float32 server's
// screen prunes too where the build has one (linalg.ScreenVectorized) —
// scored + pruned is every row at both — and the count for a fixed request
// sequence repeats exactly.
func TestScanRowsCounter(t *testing.T) {
	const users, items, k = 6, 2000, 8
	rng := rand.New(rand.NewSource(47))
	m := randomModel(rng, users, items, k)
	for i := 0; i < items; i++ { // rows share a direction, norms fall off
		for c, v := range m.Y.Row(i) {
			m.Y.Row(i)[c] = (v + 1.5) / float32(1+i)
		}
	}
	for i := range m.X.Data {
		m.X.Data[i] += 1.5
	}
	rows := func(prec quant.Precision) (scored, pruned float64) {
		s, ts := newTestServer(t, Config{CacheSize: -1})
		s.SetPrecision(prec)
		s.Swap(m, nil, "v")
		for u := 0; u < users; u++ {
			if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d", ts.URL, u), nil); code != 200 {
				t.Fatalf("%v user %d: HTTP %d", prec, u, code)
			}
		}
		return s.tel.scanRows[prec][0].Value(), s.tel.scanRows[prec][1].Value()
	}
	scored, pruned := rows(quant.I8)
	if scored+pruned != users*items || scored > users*items/5 || scored < users*10 {
		t.Errorf("i8: %v rows scored + %v pruned over %d requests of %d rows", scored, pruned, users, items)
	}
	if again, _ := rows(quant.I8); again != scored {
		t.Errorf("i8: the same requests scored %v rows, then %v", scored, again)
	}
	scored, pruned = rows(quant.F32)
	if !linalg.ScreenVectorized() {
		if scored != users*items || pruned != 0 {
			t.Errorf("f32 without a vector screen: %v rows scored + %v pruned, want every row scored", scored, pruned)
		}
	} else if scored+pruned != users*items || scored > users*items/2 || scored < users*10 {
		t.Errorf("f32: %v rows scored + %v pruned over %d requests of %d rows", scored, pruned, users, items)
	}
	if again, _ := rows(quant.F32); again != scored {
		t.Errorf("f32: the same requests scored %v rows, then %v", scored, again)
	}
	var sb strings.Builder
	s, _ := newTestServer(t, Config{})
	if err := s.Telemetry().Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `als_scan_rows_total{precision="i8",outcome="pruned"} 0`; !strings.Contains(sb.String(), want) {
		t.Errorf("missing %q before the first scan in:\n%s", want, sb.String())
	}
}

// TestRankedScansUnderHotSwap: several requests read one snapshot's ranked
// matrix at once while swaps rank the next — from models that carry a
// checkpoint encoding, so the swap's shallow model copy is on the path.
// Every result must be the natural-order reference of the version it was
// scored on. Under -race this is the sharing check for quant.Ranked.
func TestRankedScansUnderHotSwap(t *testing.T) {
	const users, items, k, readers = 4, 1500, 8, 4
	rng := rand.New(rand.NewSource(53))
	models := map[string]*core.Model{"A": randomModel(rng, users, items, k), "B": randomModel(rng, users, items, k)}
	want := map[string][][]metrics.Scored{}
	for v, m := range models {
		m.QY = naturalOrder(t, m, quant.I8)
		for u := 0; u < users; u++ {
			want[v] = append(want[v], m.QY.TopN(m.X.Row(u), nil, 10))
		}
	}
	s := New(Config{})
	s.SetPrecision(quant.I8)
	s.Swap(models["A"], nil, "A")

	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds*5; i++ {
				sn, u := s.Current(), (r+i)%users
				got, err := s.ScoreTopN(context.Background(), sn, sn.Model.X.Row(u), nil, 10)
				if err != nil || !slices.Equal(got, want[sn.Version][u]) {
					t.Errorf("version %s user %d: %v, err %v; want %v", sn.Version, u, got, err, want[sn.Version][u])
					return
				}
			}
		}(r)
	}
	for i := 0; i < rounds; i++ {
		v := "AB"[i%2 : i%2+1]
		if sn := s.Swap(models[v], nil, v); sn.Model.QY != nil || models[v].QY == nil {
			t.Errorf("swap %d: natural-order matrix kept by the snapshot or stripped from the caller", i)
		}
	}
	wg.Wait()
}
