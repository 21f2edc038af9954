package serve_test

// The frontend over a fleet of replicas, driven through the package's
// exported API as a host process does.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// ratedSet marks user 0 as having rated the given items.
func ratedSet(users, items int, rated ...int) *sparse.CSR {
	coo := sparse.NewCOO(users, items)
	for _, it := range rated {
		coo.Append(0, it, 5)
	}
	coo.Rows, coo.Cols = users, items
	m, err := sparse.NewCSR(coo)
	if err != nil {
		panic(err)
	}
	return m
}

// fleet is a scatter-gather test deployment: N shard replicas behind one
// frontend, plus a full-catalog reference server with the same model.
type fleet struct {
	front   *serve.Frontend
	frontTS *httptest.Server
	servers []*serve.Server
	shardTS []*httptest.Server
	fullTS  *httptest.Server
}

func newFleet(t *testing.T, m *core.Model, rated *sparse.CSR, shards int) *fleet {
	t.Helper()
	return newFleetPrec(t, m, rated, shards, quant.F32)
}

// newFleetPrec is newFleet with every server — replicas and the
// full-catalog reference — scoring at the given precision.
func newFleetPrec(t *testing.T, m *core.Model, rated *sparse.CSR, shards int, prec quant.Precision) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv := serve.New(serve.Config{})
		srv.SetPrecision(prec)
		rep, err := serve.NewReplica(srv, serve.ReplicaConfig{Index: i, Count: shards})
		if err != nil {
			t.Fatal(err)
		}
		rep.Swap(m, rated, "v1")
		ts := httptest.NewServer(rep.Handler())
		t.Cleanup(func() { ts.Close(); rep.Close() })
		f.servers = append(f.servers, srv)
		f.shardTS = append(f.shardTS, ts)
		urls[i] = ts.URL
	}
	front, err := serve.NewFrontend(serve.FrontendConfig{Shards: urls, ShardTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front.ProbeOnce(context.Background())
	f.front = front
	f.frontTS = httptest.NewServer(front.Handler())
	t.Cleanup(func() { f.frontTS.Close(); front.Close() })

	full := serve.New(serve.Config{})
	full.SetPrecision(prec)
	full.Swap(m, rated, "v1")
	f.fullTS = httptest.NewServer(full.Handler())
	t.Cleanup(func() { f.fullTS.Close(); full.Close() })
	return f
}

// frontAnswer decodes the frontend's /v1/recommend and /v1/foldin answers:
// the standard items plus the scatter-gather outcome.
type frontAnswer struct {
	Items    []serve.RecItem `json:"items"`
	Partial  bool            `json:"partial"`
	ShardsOK int             `json:"shards_ok"`
}

func sameItems(t *testing.T, label string, got, want []serve.RecItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: item %d = %+v, want %+v\ngot:  %+v\nwant: %+v",
				label, i, got[i], want[i], got, want)
		}
	}
}

// TestScatterGatherMergeIdentical holds the frontend's merged top-N
// item-for-item identical — indices, external IDs, scores, and the
// deterministic lower-index tie-break — to a single process serving the
// full catalog, across fleet sizes including ones where n exceeds every
// shard's local item count.
func TestScatterGatherMergeIdentical(t *testing.T) {
	const users, items, k = 5, 23, 3
	m := tieModel(users, items, k)
	rated := ratedSet(users, items, 2, 9, 22)
	for _, shards := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := newFleet(t, m, rated, shards)
			// n=10 and n=40 exceed the 3-4 items a 7-way shard holds; n=40
			// exceeds the whole catalog and must return every unrated item.
			for _, n := range []int{1, 3, 10, 40} {
				for _, user := range []int64{500, 501, 504} {
					var want serve.RecommendResponse
					if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", f.fullTS.URL, user, n), &want); code != 200 {
						t.Fatalf("full server: HTTP %d", code)
					}
					var got frontAnswer
					if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", f.frontTS.URL, user, n), &got); code != 200 {
						t.Fatalf("frontend: HTTP %d", code)
					}
					if got.Partial || got.ShardsOK != shards {
						t.Fatalf("healthy fleet answered partial=%v shards_ok=%d", got.Partial, got.ShardsOK)
					}
					sameItems(t, fmt.Sprintf("user=%d n=%d", user, n), got.Items, want.Items)
				}
			}
			// Unknown user: every shard rejects with 404, and so must the
			// frontend (a shard must NOT be marked down for it).
			if code := getJSON(t, f.frontTS.URL+"/v1/recommend?user=99999&n=3", nil); code != 404 {
				t.Fatalf("unknown user: HTTP %d, want 404", code)
			}
			if up, total := f.front.Healthy(); up != total {
				t.Fatalf("4xx marked shards down: %d/%d up", up, total)
			}
		})
	}
}

// TestScatterGatherQuantizedMergeIdentical pins the quantized fleet to the
// single-process quantized server: because factors are quantized per row,
// a replica's zero-copy slice of the catalog encoding scores every item
// bit-identically to the full server, so the merged top-N — scores and the
// lower-index tie-break over tieModel's many exact ties — must match
// item-for-item at every precision and fleet size.
func TestScatterGatherQuantizedMergeIdentical(t *testing.T) {
	const users, items, k = 5, 23, 3
	m := tieModel(users, items, k)
	rated := ratedSet(users, items, 2, 9, 22)
	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		for _, shards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%v/shards=%d", prec, shards), func(t *testing.T) {
				f := newFleetPrec(t, m, rated, shards, prec)
				var info serve.ModelResponse
				if code := getJSON(t, f.shardTS[0].URL+"/v1/model", &info); code != 200 {
					t.Fatalf("shard /v1/model: HTTP %d", code)
				}
				if info.Precision != prec.String() {
					t.Fatalf("shard model precision %q, want %q", info.Precision, prec)
				}
				for _, n := range []int{1, 3, 10, 40} {
					for _, user := range []int64{500, 501, 504} {
						var want serve.RecommendResponse
						if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", f.fullTS.URL, user, n), &want); code != 200 {
							t.Fatalf("full server: HTTP %d", code)
						}
						var got frontAnswer
						if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", f.frontTS.URL, user, n), &got); code != 200 {
							t.Fatalf("frontend: HTTP %d", code)
						}
						if got.Partial || got.ShardsOK != shards {
							t.Fatalf("healthy fleet answered partial=%v shards_ok=%d", got.Partial, got.ShardsOK)
						}
						sameItems(t, fmt.Sprintf("user=%d n=%d", user, n), got.Items, want.Items)
					}
				}
			})
		}
	}
}

var partialCounterRe = regexp.MustCompile(`(?m)^als_shard_partial_total (\d+)`)

func partialCount(t *testing.T, f *serve.Frontend) int {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m := partialCounterRe.FindStringSubmatch(buf.String())
	if m == nil {
		t.Fatalf("exposition lacks als_shard_partial_total:\n%s", buf.String())
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFrontendDegradationAndRecovery kills a shard mid-service and checks
// the documented degradation ladder: requests keep answering from the
// healthy shard flagged partial, als_shard_partial_total counts them,
// /readyz goes 503 — and after the shard restarts on the same address the
// fleet recovers to full, non-partial answers.
func TestFrontendDegradationAndRecovery(t *testing.T) {
	const users, items, k = 5, 23, 3
	m := tieModel(users, items, k)

	// Shard 0 lives on a plain httptest server; shard 1 on a hand-rolled
	// listener so it can be killed and restarted on the same address.
	srv0 := serve.New(serve.Config{})
	rep0, err := serve.NewReplica(srv0, serve.ReplicaConfig{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep0.Swap(m, nil, "v1")
	ts0 := httptest.NewServer(rep0.Handler())
	defer rep0.Close()
	defer ts0.Close()

	srv1 := serve.New(serve.Config{})
	rep1, err := serve.NewReplica(srv1, serve.ReplicaConfig{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep1.Swap(m, nil, "v1")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	hs1 := &http.Server{Handler: rep1.Handler()}
	go hs1.Serve(lis)

	front, err := serve.NewFrontend(serve.FrontendConfig{
		Shards:       []string{ts0.URL, "http://" + addr},
		ShardTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	front.ProbeOnce(context.Background())
	if up, total := front.Healthy(); up != 2 || total != 2 {
		t.Fatalf("fresh fleet: %d/%d up", up, total)
	}
	defer front.Close()
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	var full frontAnswer
	if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=10", &full); code != 200 {
		t.Fatalf("healthy request: HTTP %d", code)
	}
	if full.Partial {
		t.Fatal("healthy fleet answered partial")
	}

	// Kill shard 1: its listener and its upgraded frame connections, which
	// http.Server.Close does not reach.
	hs1.Close()
	rep1.Close()
	var degraded frontAnswer
	if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=10", &degraded); code != 200 {
		t.Fatalf("degraded request: HTTP %d", code)
	}
	if !degraded.Partial || degraded.ShardsOK != 1 {
		t.Fatalf("killed shard: partial=%v shards_ok=%d, want partial from 1 shard", degraded.Partial, degraded.ShardsOK)
	}
	if len(degraded.Items) == 0 {
		t.Fatal("degraded response returned no items from the surviving shard")
	}
	if got := partialCount(t, front); got < 1 {
		t.Fatalf("als_shard_partial_total = %d after degraded request, want >= 1", got)
	}
	if code := getJSON(t, fts.URL+"/readyz", nil); code != 503 {
		t.Fatalf("degraded /readyz: HTTP %d, want 503", code)
	}
	if err := front.Ready(); err == nil {
		t.Fatal("Ready() reported healthy with a dead shard")
	}

	// Restart shard 1 on the same address and let the prober find it.
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	rep1b, err := serve.NewReplica(srv1, serve.ReplicaConfig{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: rep1b.Handler()}
	go hs2.Serve(lis2)
	defer rep1b.Close()
	defer hs2.Close()
	front.ProbeOnce(context.Background())
	if up, _ := front.Healthy(); up != 2 {
		t.Fatalf("after restart: %d/2 up", up)
	}
	if code := getJSON(t, fts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("recovered /readyz: HTTP %d, want 200", code)
	}
	var recovered frontAnswer
	if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=10", &recovered); code != 200 {
		t.Fatalf("recovered request: HTTP %d", code)
	}
	if recovered.Partial {
		t.Fatal("recovered fleet still answering partial")
	}
	sameItems(t, "recovered", recovered.Items, full.Items)
}

// TestFrontendRejectionNotRetried: a 4xx reply blames the request, so it
// must pass through without burning a retry. (Its inverse, one 500 reply
// retried and counted, is internal/serve's TestFrontendRetriesFlakyShard:
// the fault is injected into a hop frame.)
func TestFrontendRejectionNotRetried(t *testing.T) {
	m := tieModel(4, 40, 2)
	f := newFleet(t, m, ratedSet(4, 40), 2)
	var resp frontAnswer
	if code := getJSON(t, f.frontTS.URL+"/v1/recommend?user=99&n=5", &resp); code != http.StatusNotFound {
		t.Fatalf("unknown user: HTTP %d, want 404", code)
	}
	var buf bytes.Buffer
	if err := f.front.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "als_shard_retries_total{") {
		t.Errorf("4xx reply was retried:\n%s", buf.String())
	}
}

// TestFoldInAcrossShards holds the distributed fold-in — partial normal
// equations gathered per shard, solved once at the frontend, scored across
// the fleet — bit-identical to the single-process fold-in path.
func TestFoldInAcrossShards(t *testing.T) {
	const users, items, k = 5, 23, 3
	m := tieModel(users, items, k)
	f := newFleet(t, m, nil, 3)
	req := serve.FoldInRequest{
		Items:   []int32{1, 6, 11, 17, 22}, // spans all three slices
		Ratings: []float32{5, 3, 4, 1, 2},
		N:       8,
	}
	var want serve.FoldInResponse
	if code := postJSON(t, f.fullTS.URL+"/v1/foldin", req, &want); code != 200 {
		t.Fatalf("full server fold-in: HTTP %d", code)
	}
	var got frontAnswer
	if code := postJSON(t, f.frontTS.URL+"/v1/foldin", req, &got); code != 200 {
		t.Fatalf("frontend fold-in: HTTP %d", code)
	}
	if got.Partial {
		t.Fatal("healthy fleet answered partial fold-in")
	}
	sameItems(t, "foldin", got.Items, want.Items)

	// The single-process validation rules hold at the frontend too.
	for _, bad := range []serve.FoldInRequest{
		{Items: []int32{1, 2}, Ratings: []float32{5}, N: 3},
		{Items: []int32{1, 1}, Ratings: []float32{5, 4}, N: 3},
		{Items: []int32{int32(items)}, Ratings: []float32{5}, N: 3},
		{Items: nil, Ratings: nil, N: 3},
	} {
		if code := postJSON(t, f.frontTS.URL+"/v1/foldin", bad, nil); code != 400 {
			t.Fatalf("bad fold-in %+v: HTTP %d, want 400", bad, code)
		}
	}
	// Fold-in sent directly to a shard replica is refused: it would solve
	// against a partial Gram matrix and return silently wrong factors.
	if code := postJSON(t, f.shardTS[0].URL+"/v1/foldin", req, nil); code != 501 {
		t.Fatalf("shard-direct fold-in: HTTP %d, want 501", code)
	}

	// At k = 32 with factors that are not integers, the order of a sum shows
	// in its bits. Each shard's reply must carry its slice's float32 terms bit
	// for bit, and the frontend must add them component by component in shard
	// order, solve that sum and score with the solution: its answer, scores to
	// the bit, is the one built here from each slice's terms.
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=32/shards=%d", shards), func(t *testing.T) {
			const items, k = 61, 32
			// Gaussian factors at the scale of a trained model, so Gram and
			// RHS sums round, and a fold-in rating every third item, so each
			// shard holds several of the ratings.
			rng := rand.New(rand.NewSource(int64(items*k + 4)))
			m := &core.Model{K: k, X: linalg.NewDense(4, k), Y: linalg.NewDense(items, k), Meta: core.Meta{Lambda: 0.5}}
			for _, d := range [][]float32{m.X.Data, m.Y.Data} {
				for i := range d {
					d[i] = float32(0.3 * rng.NormFloat64())
				}
			}
			f := newFleet(t, m, nil, shards)
			req := serve.FoldInRequest{N: 10}
			for i := 0; i < items; i += 3 {
				req.Items = append(req.Items, int32(i))
				req.Ratings = append(req.Ratings, float32(1+i%5))
			}
			packed, rhs := make([]float32, linalg.PackedLen(k)), make([]float32, k)
			for s := 0; s < shards; s++ {
				lo, hi := sparse.Range(items, s, shards)
				var cols []int32
				var vals []float32
				for z, it := range req.Items {
					if int(it) >= lo && int(it) < hi {
						cols, vals = append(cols, it-int32(lo)), append(vals, req.Ratings[z])
					}
				}
				gram, r := make([]float32, len(packed)), make([]float32, k)
				linalg.GramRHSFused(m.Y.Data[lo*k:hi*k], k, cols, vals, gram, r)
				for z, v := range gram {
					packed[z] += v
				}
				for z, v := range r {
					rhs[z] += v
				}
			}
			x, err := core.SolveFoldIn(packed, rhs, k, m.Meta.Lambda)
			if err != nil {
				t.Fatal(err)
			}
			rated := map[int]bool{}
			for _, it := range req.Items {
				rated[int(it)] = true
			}
			top := metrics.NewTopK(req.N)
			for i := 0; i < items; i++ {
				if !rated[i] {
					top.Push(i, linalg.Dot(x, m.Y.Row(i)))
				}
			}
			var want []serve.RecItem
			for _, s := range top.Drain() {
				want = append(want, serve.RecItem{Item: s.Item, Score: s.Score})
			}
			var got frontAnswer
			if code := postJSON(t, f.frontTS.URL+"/v1/foldin", req, &got); code != 200 {
				t.Fatalf("frontend fold-in: HTTP %d", code)
			}
			sameItems(t, "k=32 foldin", got.Items, want)
		})
	}
}

// TestFoldInPurgesAllShards is the regression test for the distributed
// write path: a fold-in that names a user must purge that user's cached
// responses on every shard, or a later /v1/recommend through the frontend
// would merge one shard's fresh slice with another's stale cache entry.
func TestFoldInPurgesAllShards(t *testing.T) {
	const users, items, k = 5, 23, 3
	m := tieModel(users, items, k)
	f := newFleet(t, m, nil, 3)
	const user = int64(501)

	// Warm every shard's LRU through the frontend.
	var warm frontAnswer
	if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=5", f.frontTS.URL, user), &warm); code != 200 {
		t.Fatalf("warming: HTTP %d", code)
	}
	dense := int(user - 500)
	for i, srv := range f.servers {
		if got := srv.ResponseCache().UserEntries(dense); got != 1 {
			t.Fatalf("shard %d: %d cached entries for user after warm, want 1", i, got)
		}
	}

	u := user
	req := serve.FoldInRequest{
		Items: []int32{0, 8, 20}, Ratings: []float32{5, 4, 3}, N: 5, User: &u,
	}
	if code := postJSON(t, f.frontTS.URL+"/v1/foldin", req, nil); code != 200 {
		t.Fatalf("fold-in: HTTP %d", code)
	}
	for i, srv := range f.servers {
		if got := srv.ResponseCache().UserEntries(dense); got != 0 {
			t.Fatalf("shard %d still holds %d cached entries for the folded-in user", i, got)
		}
	}
}

// TestFleetLeavesNoGoroutines: a fleet that has served recommends, fold-ins
// and probes leaves nothing running once it is shut down in the order a
// host does it — listeners, then Frontend.Close and Replica.Close, then the
// Servers. An upgraded frame connection outlives http.Server.Close, so its
// loop on the replica and its idle place on the frontend are the two ends
// this holds to account.
func TestFleetLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Run("fleet", func(t *testing.T) {
		const users, items, k = 5, 23, 3
		f := newFleet(t, tieModel(users, items, k), nil, 3)
		u := int64(501)
		for i := 0; i < 4; i++ {
			if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=5", f.frontTS.URL, 500+i), nil); code != 200 {
				t.Fatalf("recommend: HTTP %d", code)
			}
			req := serve.FoldInRequest{Items: []int32{1, 9, 20}, Ratings: []float32{5, 3, 4}, N: 5, User: &u}
			if code := postJSON(t, f.frontTS.URL+"/v1/foldin", req, nil); code != 200 {
				t.Fatalf("fold-in: HTTP %d", code)
			}
		}
		f.front.ProbeOnce(context.Background())
	})
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the fleet, %d after it closed:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
