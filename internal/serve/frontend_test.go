package serve_test

// The frontend over a fleet of replicas, driven through the package's
// exported API as a host process does.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
	m, err := coo.ToCSR()
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
		t.Cleanup(func() { ts.Close(); rep.Close(); srv.Close() })
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
	defer srv0.Close()
	defer rep0.Close()
	defer ts0.Close()

	srv1 := serve.New(serve.Config{})
	rep1, err := serve.NewReplica(srv1, serve.ReplicaConfig{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep1.Swap(m, nil, "v1")
	defer srv1.Close()
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
