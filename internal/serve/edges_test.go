package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/rtrace"
)

// newTestFrontend stands up shards replicas of m, each wrapping a server
// built from cfg, behind a frontend with the same request caps, and returns
// the frontend's URL.
func newTestFrontend(t testing.TB, cfg Config, m *core.Model, shards int) string {
	t.Helper()
	return newTestFleet(t, cfg, m, shards, FrontendConfig{ShardTimeout: 5 * time.Second,
		MaxN: cfg.MaxN, MaxFoldInItems: cfg.MaxFoldInItems}, nil).url
}

// testFleet is a frontend over replicas of one model, each behind its own
// loopback listener.
type testFleet struct {
	front    *Frontend
	url      string // the frontend's
	replicas []*Replica
	servers  []*Server
}

// newTestFleet builds a testFleet of shards replicas of m, servers built from
// cfg and the frontend from fcfg (its Shards filled in). wrap, when non-nil,
// stands between a shard's hop frames and its replica: shard i's frames are
// answered by wrap(i, replica's answer). Everything closes at cleanup in a
// host's order: listeners, frontend and replicas, servers.
func newTestFleet(t testing.TB, cfg Config, m *core.Model, shards int, fcfg FrontendConfig,
	wrap func(i int, next hopAnswer) hopAnswer) *testFleet {
	t.Helper()
	f := &testFleet{}
	fcfg.Shards = nil
	for i := 0; i < shards; i++ {
		srv := New(cfg)
		rep, err := NewReplica(srv, ReplicaConfig{Index: i, Count: shards})
		if err != nil {
			t.Fatal(err)
		}
		rep.Swap(m, nil, "v1")
		h := rep.Handler()
		if wrap != nil {
			answer := wrap(i, rep.answer)
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != hopPath {
					rep.Handler().ServeHTTP(w, r)
					return
				}
				if c, br, ok := upgradeHop(w, r); ok {
					go func() { serveHop(c, br, rep.frameLimit, answer); c.Close() }()
				}
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { ts.Close(); rep.Close() })
		f.replicas = append(f.replicas, rep)
		f.servers = append(f.servers, srv)
		fcfg.Shards = append(fcfg.Shards, ts.URL)
	}
	front, err := NewFrontend(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	front.ProbeOnce(context.Background())
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(func() { fts.Close(); front.Close() })
	f.front, f.url = front, fts.URL
	return f
}

// TestEdgesRejectAlike sends the same malformed and boundary requests to a
// single server and to a frontend over two replicas of the same model: the
// two edges of the one /v1 API must answer each with the same status and,
// for a rejection, the same error body — the single server's wording.
func TestEdgesRejectAlike(t *testing.T) {
	const items, maxN, maxFoldIn = 16, 12, 4
	cfg := Config{MaxN: maxN, MaxFoldInItems: maxFoldIn}
	m := linearModel(1, 2, items, 2)
	s, ts := newTestServer(t, cfg)
	s.Swap(m, nil, "v1")
	edges := []string{ts.URL, newTestFrontend(t, cfg, m, 2)}

	foldin := func(body string) func(string) (*http.Response, error) {
		return func(base string) (*http.Response, error) {
			return http.Post(base+"/v1/foldin", "application/json", strings.NewReader(body))
		}
	}
	recommend := func(query string) func(string) (*http.Response, error) {
		return func(base string) (*http.Response, error) { return http.Get(base + "/v1/recommend?" + query) }
	}
	cases := []struct {
		name string
		send func(base string) (*http.Response, error)
		want int
	}{
		{"n = 0", recommend("user=0&n=0"), 400},
		{"n = MaxN", recommend(fmt.Sprintf("user=0&n=%d", maxN)), 200},
		{"n = MaxN+1", recommend(fmt.Sprintf("user=0&n=%d", maxN+1)), 400},
		{"n not a number", recommend("user=0&n=ten"), 400},
		{"user not an integer", recommend("user=1.5"), 400},
		{"user missing", recommend("n=3"), 400},
		{"user unknown", recommend("user=99"), 404},
		{"fold-in empty", foldin(`{}`), 400},
		{"fold-in at the cap", foldin(`{"items":[0,1,2,3],"ratings":[1,2,3,4]}`), 200},
		{"fold-in over the cap", foldin(`{"items":[0,1,2,3,4],"ratings":[1,2,3,4,5]}`), 400},
		{"fold-in length mismatch", foldin(`{"items":[1,2],"ratings":[5]}`), 400},
		{"fold-in duplicate item", foldin(`{"items":[3,3],"ratings":[5,4]}`), 400},
		{"fold-in item = catalog size", foldin(fmt.Sprintf(`{"items":[%d],"ratings":[5]}`, items)), 400},
		{"fold-in negative item", foldin(`{"items":[-1],"ratings":[5]}`), 400},
		{"fold-in NaN rating", foldin(`{"items":[1],"ratings":[NaN]}`), 400},
		{"fold-in rating past float32", foldin(`{"items":[1],"ratings":[1e39]}`), 400},
		{"fold-in n = MaxN+1", foldin(fmt.Sprintf(`{"items":[1],"ratings":[5],"n":%d}`, maxN+1)), 400},
		{"fold-in not JSON", foldin(`{not json`), 400},
		{"fold-in oversized body", foldin(paddedBody(`{"items":[1],"ratings":[5]`, foldInBodyLimit(maxFoldIn)+1)), 413},
	}
	for _, c := range cases {
		var bodies [2]string
		for e, base := range edges {
			resp, err := c.send(base)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[e] = string(raw)
			if resp.StatusCode != c.want {
				t.Errorf("%s: edge %d answered %d (%s), want %d", c.name, e, resp.StatusCode, raw, c.want)
			}
		}
		if c.want != 200 && bodies[0] != bodies[1] {
			t.Errorf("%s: the edges word the rejection differently:\n server   %s frontend %s", c.name, bodies[0], bodies[1])
		}
	}
}

// saveModel writes m the way alstrain -out does, as a float32 checkpoint
// with its model block, and returns the path.
func saveModel(t testing.TB, m *core.Model) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.bin")
	st := &checkpoint.State{K: m.K, X: m.X, Y: m.Y,
		Lambda: m.Meta.Lambda, WeightedLambda: m.Meta.WeightedLambda,
		Version: m.Meta.Version, UserIDs: m.UserIDs, ItemIDs: m.ItemIDs}
	if err := checkpoint.WriteFileAtomic(checkpoint.OS, path, func(w io.Writer) error {
		return checkpoint.Encode(w, st)
	}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSwapInstallSpan: POST /admin/swap records a swap.install span under
// the request's root on the unsharded server and on a shard replica alike —
// one handler serves both, the replica supplying only the slice.
func TestSwapInstallSpan(t *testing.T) {
	path := saveModel(t, linearModel(1, 3, 8, 2))
	for _, sharded := range []bool{false, true} {
		tr := rtrace.New(rtrace.Config{Sample: 1, Process: "test"})
		s := New(Config{Tracer: tr})
		h, wantItems := s.Handler(), 8
		if sharded {
			rep, err := NewReplica(s, ReplicaConfig{Index: 0, Count: 2})
			if err != nil {
				t.Fatal(err)
			}
			h, wantItems = rep.Handler(), 4
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)

		var resp swapResponse
		if code := postJSON(t, ts.URL+"/admin/swap", swapRequest{Model: path}, &resp); code != 200 {
			t.Fatalf("sharded=%v: swap status %d", sharded, code)
		}
		if resp.Users != 3 || resp.Items != wantItems {
			t.Errorf("sharded=%v: swap installed %d users x %d items, want 3 x %d", sharded, resp.Users, resp.Items, wantItems)
		}
		byName := map[string]rtrace.SpanRecord{}
		for _, sp := range tr.Snapshot() {
			byName[sp.Name] = sp
		}
		root, install := byName["swap"], byName["swap.install"]
		if root.ID == 0 || install.ID == 0 || install.Parent != root.ID {
			t.Errorf("sharded=%v: want a swap.install span under the swap root, have %+v", sharded, byName)
		}
	}
}
