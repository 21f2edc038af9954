package serve_test

// The fleet's model distribution and its tracing, driven through the
// package's exported API as a host process does.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/e2e"
	"repro/internal/linalg"
	"repro/internal/rtrace"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// TestWatcherShardSync exercises the fleet's model-distribution mechanism:
// every replica follows the same checkpoint directory through a watcher
// whose Transform hook slices each checkpoint down to the replica's item
// range, so one training run's -checkpoint-dir drives the whole fleet and
// each member hot-swaps only its slice — and its items' columns of the
// rated set. Through a frontend, every user's merged top-N equals a single
// server's that follows the same directory with the whole rated set.
func TestWatcherShardSync(t *testing.T) {
	const users, items, k, shards = 5, 23, 3, 3
	fsys := checkpoint.NewMemFS()
	const dir = "ckpts"

	save := func(iter int, m *core.Model) {
		st := &checkpoint.State{
			Iteration: iter, K: m.K, Lambda: 0.5, Seed: 1, Variant: "tb",
			X: m.X, Y: m.Y,
		}
		if _, err := checkpoint.Save(fsys, dir, st); err != nil {
			t.Fatal(err)
		}
	}
	m1 := tieModel(users, items, k)
	save(1, m1)

	// Users 0-3 rated the items on both sides of every shard boundary
	// (lo-1, lo, hi-1 and hi of each shard); user 4 rated items of shard
	// 1 alone.
	coo := sparse.NewCOO(users, items)
	for u, rated := range [][]int{{0, 6, 7, 14, 15, 22}, {6, 7}, {14, 15, 22}, {0, 22}, {8, 10, 13}} {
		for _, it := range rated {
			coo.Append(u, it, 4)
		}
	}
	coo.Rows, coo.Cols = users, items
	rated, err := sparse.NewCSR(coo)
	if err != nil {
		t.Fatal(err)
	}

	var servers []*serve.Server
	var watchers []*serve.Watcher
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv := serve.New(serve.Config{})
		rep, err := serve.NewReplica(srv, serve.ReplicaConfig{Index: i, Count: shards})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rep.Handler())
		t.Cleanup(func() { ts.Close(); rep.Close() })
		urls[i] = ts.URL
		w := serve.NewWatcher(srv, serve.WatcherConfig{
			Dir: dir, FS: fsys, Rated: rated, Transform: rep.Transform,
		})
		if swapped, err := w.Poll(); err != nil || !swapped {
			t.Fatalf("shard %d: initial poll swapped=%v err=%v", i, swapped, err)
		}
		servers = append(servers, srv)
		watchers = append(watchers, w)
	}
	single := serve.New(serve.Config{})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(singleTS.Close)
	singleW := serve.NewWatcher(single, serve.WatcherConfig{Dir: dir, FS: fsys, Rated: rated})
	if swapped, err := singleW.Poll(); err != nil || !swapped {
		t.Fatalf("single server: initial poll swapped=%v err=%v", swapped, err)
	}
	front, err := serve.NewFrontend(serve.FrontendConfig{Shards: urls, ShardTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	frontTS := httptest.NewServer(front.Handler())
	t.Cleanup(func() { frontTS.Close(); front.Close() })
	front.ProbeOnce(context.Background())
	sameAnswers := func(version string) {
		t.Helper()
		for u := 0; u < users; u++ {
			var want serve.RecommendResponse
			url := fmt.Sprintf("/v1/recommend?user=%d&n=%d", u, items)
			if code := getJSON(t, singleTS.URL+url, &want); code != 200 || want.Version != version {
				t.Fatalf("single server: HTTP %d, version %q, want %q", code, want.Version, version)
			}
			var got frontAnswer
			if code := getJSON(t, frontTS.URL+url, &got); code != 200 || got.ShardsOK != shards {
				t.Fatalf("frontend: HTTP %d, %d shards ok", code, got.ShardsOK)
			}
			if len(want.Items) != items-rated.RowNNZ(u) {
				t.Fatalf("user %d: the single server returned %d items, want the %d unrated", u, len(want.Items), items-rated.RowNNZ(u))
			}
			sameItems(t, fmt.Sprintf("%s user %d", version, u), got.Items, want.Items)
		}
	}
	sameAnswers("ckpt-1")

	for i, srv := range servers {
		sn := srv.Current()
		lo, hi := sparse.Range(items, i, shards)
		if sn.ItemOffset != lo || sn.ItemTotal != items || sn.Model.Y.Rows != hi-lo {
			t.Fatalf("shard %d installed offset=%d total=%d rows=%d, want offset=%d total=%d rows=%d",
				i, sn.ItemOffset, sn.ItemTotal, sn.Model.Y.Rows, lo, items, hi-lo)
		}
		if sn.Version != "ckpt-1" {
			t.Fatalf("shard %d version = %q, want ckpt-1", i, sn.Version)
		}
		// The slice is a copy of the checkpoint's rows: row lo+1 of the
		// full Y must be local row 1.
		if hi-lo > 1 && sn.Model.Y.At(1, 0) != m1.Y.At(lo+1, 0) {
			t.Fatalf("shard %d slice content mismatch at local row 1", i)
		}
	}

	// A newer checkpoint lands; every shard picks up exactly its slice of
	// the new factors on the next poll.
	m2 := tieModel(users, items, k)
	for i := 0; i < items; i++ {
		m2.Y.Set(i, 0, float32(100+i))
	}
	save(2, m2)
	for i, w := range watchers {
		if swapped, err := w.Poll(); err != nil || !swapped {
			t.Fatalf("shard %d: second poll swapped=%v err=%v", i, swapped, err)
		}
		sn := servers[i].Current()
		lo, _ := sparse.Range(items, i, shards)
		if sn.Version != "ckpt-2" {
			t.Fatalf("shard %d version = %q after new checkpoint", i, sn.Version)
		}
		if got, want := sn.Model.Y.At(0, 0), float32(100+lo); got != want {
			t.Fatalf("shard %d local row 0 = %v, want %v (global row %d of the new checkpoint)",
				i, got, want, lo)
		}
	}
	if swapped, err := singleW.Poll(); err != nil || !swapped {
		t.Fatalf("single server: second poll swapped=%v err=%v", swapped, err)
	}
	sameAnswers("ckpt-2")

	// No newer checkpoint: polls are quiescent.
	for i, w := range watchers {
		if swapped, _ := w.Poll(); swapped {
			t.Fatalf("shard %d swapped with no new checkpoint", i)
		}
	}
}

// tracedFleet builds a 2-shard fleet where the frontend and both replicas
// share one tracer, so shard-side middleware spans land in the same ring the
// frontend publishes to (in production each process has its own tracer and
// the traces are joined by ID in the UI; sharing one here lets the test see
// the whole stitched tree).
func tracedFleet(t *testing.T, tr *rtrace.Tracer) *serve.Frontend {
	t.Helper()
	const shards = 2
	m := tieModel(5, 23, 3)
	urls := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv := serve.New(serve.Config{Tracer: tr})
		rep, err := serve.NewReplica(srv, serve.ReplicaConfig{Index: i, Count: shards})
		if err != nil {
			t.Fatal(err)
		}
		rep.Swap(m, nil, "v1")
		ts := httptest.NewServer(rep.Handler())
		t.Cleanup(func() { ts.Close(); rep.Close() })
		urls[i] = ts.URL
	}
	front, err := serve.NewFrontend(serve.FrontendConfig{
		Shards: urls, ShardTimeout: 5 * time.Second, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	front.ProbeOnce(context.Background())
	return front
}

// TestFrontendTraceSpans checks the scatter-gather span tree: a frontend
// root with one hop child per contacted shard (plus the merge span), hop
// envelopes inside the root's, the shard's own middleware span stitched
// under its hop via the context its request frame carries, and the trace retrievable from
// the flight recorder by the same ID.
func TestFrontendTraceSpans(t *testing.T) {
	tr := rtrace.New(rtrace.Config{Sample: 1, Process: "alsfront"})
	front := tracedFleet(t, tr)
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(fts.Close)

	if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=5", nil); code != 200 {
		t.Fatalf("recommend: HTTP %d", code)
	}

	spans := tr.Snapshot()
	children := map[rtrace.SpanID][]rtrace.SpanRecord{}
	var root rtrace.SpanRecord
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
		if sp.Name == "recommend" && sp.Parent == 0 {
			root = sp
		}
	}
	if root.ID == 0 {
		t.Fatalf("no frontend root span among %d spans", len(spans))
	}
	hops, merges := 0, 0
	for _, c := range children[root.ID] {
		if c.Trace != root.Trace {
			t.Errorf("child %q trace = %v, want root trace %v", c.Name, c.Trace, root.Trace)
		}
		if c.Start.Before(root.Start) || c.Start.Add(c.Dur).After(root.Start.Add(root.Dur)) {
			t.Errorf("child %q outside the root envelope", c.Name)
		}
		switch {
		case strings.HasPrefix(c.Name, "shard"):
			hops++
			// The shard's middleware span joined the trace through the
			// context in the hop's request frame.
			found := false
			for _, g := range children[c.ID] {
				if g.Name == "recommend" {
					found = true
				}
			}
			if !found {
				t.Errorf("hop %q has no shard-side middleware span beneath it", c.Name)
			}
		case c.Name == "merge":
			merges++
		}
	}
	if hops != 2 {
		t.Errorf("root has %d shard hop spans, want 2", hops)
	}
	if merges != 1 {
		t.Errorf("root has %d merge spans, want 1", merges)
	}

	slowest := tr.Slowest()
	traces, ok := slowest["recommend"]
	if !ok || len(traces) == 0 {
		t.Fatalf("flight recorder has no recommend traces: %v", slowest)
	}
	if traces[0].Trace != root.Trace {
		t.Errorf("slowest trace ID %v, want %v", traces[0].Trace, root.Trace)
	}
}

// TestTimedStatusCodesConcurrent drives mixed-status requests through the
// frontend middleware from many goroutines at once: the statusWriter must
// capture each handler's code without races, and the per-code counter and
// histogram labels must add up exactly.
func TestTimedStatusCodesConcurrent(t *testing.T) {
	front := tracedFleet(t, nil)
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(fts.Close)

	const perCode = 8
	var wg sync.WaitGroup
	for i := 0; i < perCode; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=3", nil); code != 200 {
				t.Errorf("known user: HTTP %d", code)
			}
		}()
		go func() {
			defer wg.Done()
			if code := getJSON(t, fts.URL+"/v1/recommend?user=99999&n=3", nil); code != 404 {
				t.Errorf("unknown user: HTTP %d", code)
			}
		}()
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := front.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if _, err := e2e.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition does not validate: %v", err)
	}
	for _, want := range []string{
		fmt.Sprintf(`als_front_requests_total{endpoint="recommend",code="200"} %d`, perCode),
		fmt.Sprintf(`als_front_requests_total{endpoint="recommend",code="404"} %d`, perCode),
		fmt.Sprintf(`als_front_request_seconds_count{code="200"} %d`, perCode),
		fmt.Sprintf(`als_front_request_seconds_count{code="404"} %d`, perCode),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

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
