package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// tieModel builds a compact model whose scores are small integers with
// plenty of exact cross-shard ties: score(u, i) = i%5 + (u%2)·((i/5)%3).
// Integer-valued factors keep every Gram/RHS sum exactly representable, so
// the distributed fold-in solve is bit-identical to the single-process one
// regardless of summation order.
func tieModel(users, items, k int) *core.Model {
	x := linalg.NewDense(users, k)
	y := linalg.NewDense(items, k)
	for u := 0; u < users; u++ {
		x.Set(u, 0, 1)
		x.Set(u, 1, float32(u%2))
	}
	for i := 0; i < items; i++ {
		y.Set(i, 0, float32(i%5))
		y.Set(i, 1, float32((i/5)%3))
	}
	m := &core.Model{K: k, X: x, Y: y,
		UserIDs: make([]int64, users), ItemIDs: make([]int64, items),
		Meta: core.Meta{Lambda: 0.5}}
	for u := range m.UserIDs {
		m.UserIDs[u] = int64(500 + u)
	}
	for i := range m.ItemIDs {
		m.ItemIDs[i] = int64(1000 + i)
	}
	return m
}

// ratedSet marks user 0 as having rated the given items.
func ratedSet(users, items int, rated ...int) *sparse.CSR {
	coo := sparse.NewCOO(users, items)
	for _, it := range rated {
		coo.Append(0, it, 5)
	}
	coo.Rows, coo.Cols = users, items
	m, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

// fleet is a scatter-gather test deployment: N shard replicas behind one
// frontend, plus a full-catalog reference server with the same model.
type fleet struct {
	front    *serve.Frontend
	frontTS  *httptest.Server
	replicas []*serve.Replica
	servers  []*serve.Server
	shardTS  []*httptest.Server
	full     *serve.Server
	fullTS   *httptest.Server
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
		t.Cleanup(func() { ts.Close(); rep.Close(); srv.Close() })
		f.replicas = append(f.replicas, rep)
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

	f.full = serve.New(serve.Config{})
	f.full.SetPrecision(prec)
	f.full.Swap(m, rated, "v1")
	f.fullTS = httptest.NewServer(f.full.Handler())
	t.Cleanup(func() { f.fullTS.Close(); f.full.Close() })
	return f
}

// frontAnswer decodes the frontend's /v1/recommend and /v1/foldin answers:
// the standard items plus the scatter-gather outcome.
type frontAnswer struct {
	Items    []serve.RecItem `json:"items"`
	Partial  bool            `json:"partial"`
	ShardsOK int             `json:"shards_ok"`
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
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
			m := randomModel(4, items, k)
			f := newFleet(t, m, nil, shards)
			req := spreadFoldIn(items)
			packed, rhs := make([]float32, linalg.PackedLen(k)), make([]float32, k)
			for s := 0; s < shards; s++ {
				lo, hi := s*items/shards, (s+1)*items/shards
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

// randomModel is a non-compact model with Gaussian factors at the scale of a
// trained one, so Gram and RHS sums round.
func randomModel(users, items, k int) *core.Model {
	rng := rand.New(rand.NewSource(int64(items*k + users)))
	x, y := linalg.NewDense(users, k), linalg.NewDense(items, k)
	for _, d := range [][]float32{x.Data, y.Data} {
		for i := range d {
			d[i] = float32(0.3 * rng.NormFloat64())
		}
	}
	return &core.Model{K: k, X: x, Y: y, Meta: core.Meta{Lambda: 0.5}}
}

// spreadFoldIn rates every third item of the catalog, so each shard of a
// small fleet holds several of the ratings.
func spreadFoldIn(items int) serve.FoldInRequest {
	req := serve.FoldInRequest{N: 10}
	for i := 0; i < items; i += 3 {
		req.Items = append(req.Items, int32(i))
		req.Ratings = append(req.Ratings, float32(1+i%5))
	}
	return req
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

// TestRequestBodyLimits: the replica's JSON endpoints and the frontend's
// fold-in stop reading a body at a limit derived from what they can accept
// (413 past it); a body of exactly the limit is decoded and judged on its
// content. (The replica's hop frames — partials, score, purge — have the
// same rule and their own test, internal/serve's TestHopBodyLimits.)
func TestRequestBodyLimits(t *testing.T) {
	const items, k = 30, 2
	f := newFleet(t, tieModel(2, items, k), nil, 2)
	// serve's limits, spelled out: a fold-in of n ratings may take 1 KiB + 48n
	// bytes, and bodies of a few scalars 64 KiB.
	foldIn := func(n int) int64 { return 1<<10 + 48*int64(n) }
	const small = 64 << 10
	cases := []struct {
		name, url, prefix string
		limit             int64
		atLimit           int // status for a body of exactly limit bytes
	}{
		{"replica swap", f.shardTS[0].URL + "/admin/swap", `{"model":""`, small, 400},
		{"frontend foldin", f.frontTS.URL + "/v1/foldin", `{"items":[1],"ratings":[5]`, foldIn(10000), 200},
	}
	for _, c := range cases {
		for _, over := range []int64{0, 1} {
			size := c.limit + over
			body := c.prefix + string(bytes.Repeat([]byte(" "), int(size)-len(c.prefix)-1)) + "}"
			resp, err := http.Post(c.url, "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			var e struct{ Error string }
			json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			want := c.atLimit
			if over > 0 {
				want = http.StatusRequestEntityTooLarge
			}
			if resp.StatusCode != want {
				t.Errorf("%s, %d bytes over the limit: status %d (%q), want %d", c.name, over, resp.StatusCode, e.Error, want)
			}
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
