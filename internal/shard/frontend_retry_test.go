package shard

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestFrontendRetriesFlakyShard pins the transient-failure path: a shard
// whose first reply is a 500 must be retried once within the per-shard
// deadline, so the merged answer is complete (not partial) and the retry is
// counted — one flaky response no longer degrades the request.
func TestFrontendRetriesFlakyShard(t *testing.T) {
	m := tieModel(4, 40, 2)
	rated := ratedSet(4, 40)

	urls := make([]string, 2)
	for i := 0; i < 2; i++ {
		srv := serve.New(serve.Config{})
		rep, err := serve.NewReplica(srv, serve.ReplicaConfig{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep.Swap(m, rated, "v1")
		h := rep.Handler()
		if i == 1 {
			// Shard 1 fails exactly one recommend request, then recovers.
			var failed atomic.Bool
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/v1/recommend") && failed.CompareAndSwap(false, true) {
					http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
					return
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls[i] = ts.URL
	}

	front, err := serve.NewFrontend(serve.FrontendConfig{
		Shards: urls, ShardTimeout: 5 * time.Second, RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front.ProbeOnce(context.Background())
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(fts.Close)

	var resp frontAnswer
	if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=5", &resp); code != http.StatusOK {
		t.Fatalf("recommend: HTTP %d", code)
	}
	if resp.Partial || resp.ShardsOK != 2 {
		t.Fatalf("flaky shard degraded the answer: partial=%v shardsOK=%d", resp.Partial, resp.ShardsOK)
	}

	var buf bytes.Buffer
	if err := front.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `als_shard_retries_total{shard="1"} 1`) {
		t.Errorf("exposition lacks the retry count:\n%s", text)
	}
	if strings.Contains(text, `als_shard_partial_total 1`) {
		t.Error("partial counter incremented despite successful retry")
	}

	// The recovered shard answers first try now: no second retry.
	if code := getJSON(t, fts.URL+"/v1/recommend?user=500&n=5", &resp); code != http.StatusOK || resp.Partial {
		t.Fatalf("healthy request: HTTP %d partial=%v", code, resp.Partial)
	}
	buf.Reset()
	if err := front.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `als_shard_retries_total{shard="1"} 1`) {
		t.Error("retry counter moved on a healthy request")
	}
}

// TestFrontendRejectionNotRetried pins the inverse: a 4xx reply blames the
// request, so it must pass through without burning a retry.
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
