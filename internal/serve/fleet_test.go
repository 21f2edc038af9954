package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/linalg"
)

// fleetFoldIn rates every third item of a catalog of items, so each shard
// of a small fleet holds several of the ratings.
func fleetFoldIn(items int) FoldInRequest {
	req := FoldInRequest{N: 10}
	for i := 0; i < items; i += 3 {
		req.Items = append(req.Items, int32(i))
		req.Ratings = append(req.Ratings, float32(1+i%5))
	}
	return req
}

// gaussModel is a non-compact model with Gaussian factors at the scale of a
// trained one, so its Gram and RHS terms round.
func gaussModel(users, items, k int) *core.Model {
	rng := rand.New(rand.NewSource(int64(items*k + users)))
	x, y := linalg.NewDense(users, k), linalg.NewDense(items, k)
	for _, d := range [][]float32{x.Data, y.Data} {
		for i := range d {
			d[i] = float32(0.3 * rng.NormFloat64())
		}
	}
	return &core.Model{K: k, X: x, Y: y, Meta: core.Meta{Lambda: 0.5}}
}

// frontAnswer decodes the frontend's /v1/recommend and /v1/foldin answers:
// the standard items plus the scatter-gather outcome.
type frontAnswer struct {
	Items    []RecItem `json:"items"`
	Partial  bool      `json:"partial"`
	ShardsOK int       `json:"shards_ok"`
}

// exposition renders f's metrics.
func exposition(t *testing.T, f *Frontend) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFrontendRetriesFlakyShard pins the transient-failure path: a shard
// whose first recommend reply is a 500 must be retried once within the
// per-shard deadline, so the merged answer is complete (not partial) and
// the retry is counted — one flaky response does not degrade the request.
func TestFrontendRetriesFlakyShard(t *testing.T) {
	var failed atomic.Bool
	f := newTestFleet(t, Config{}, linearModel(1, 4, 40, 2), 2,
		FrontendConfig{ShardTimeout: 5 * time.Second, RetryBackoff: 5 * time.Millisecond},
		func(i int, next hopAnswer) hopAnswer {
			if i != 1 {
				return next
			}
			// Shard 1 fails exactly one recommend frame, then recovers.
			return func(st *hopScratch, kind byte, p []byte, err error) []byte {
				if kind == hopRecommend && failed.CompareAndSwap(false, true) {
					return appendError(st.reply[:0], nil, &statusError{code: http.StatusInternalServerError, msg: "transient"})
				}
				return next(st, kind, p, err)
			}
		})

	var resp frontAnswer
	if code := getJSON(t, f.url+"/v1/recommend?user=0&n=5", &resp); code != http.StatusOK {
		t.Fatalf("recommend: HTTP %d", code)
	}
	if resp.Partial || resp.ShardsOK != 2 {
		t.Fatalf("flaky shard degraded the answer: partial=%v shardsOK=%d", resp.Partial, resp.ShardsOK)
	}
	text := exposition(t, f.front)
	if !strings.Contains(text, `als_shard_retries_total{shard="1"} 1`) {
		t.Errorf("exposition lacks the retry count:\n%s", text)
	}
	if strings.Contains(text, `als_shard_partial_total 1`) {
		t.Error("partial counter incremented despite successful retry")
	}

	// The recovered shard answers first try now: no second retry.
	if code := getJSON(t, f.url+"/v1/recommend?user=0&n=5", &resp); code != http.StatusOK || resp.Partial {
		t.Fatalf("healthy request: HTTP %d partial=%v", code, resp.Partial)
	}
	if !strings.Contains(exposition(t, f.front), `als_shard_retries_total{shard="1"} 1`) {
		t.Error("retry counter moved on a healthy request")
	}
}

// TestFoldInRejectsForeignPartials: a shard whose partials reply does not
// fit the others' — its terms one float32 short, or a k of its own —
// fails the fold-in with 502 "shards disagree", never a solve over missing
// terms. And the format pays for itself: the reply frame is at most half
// the bytes of the same terms as JSON numbers.
func TestFoldInRejectsForeignPartials(t *testing.T) {
	const items, k = 61, 32
	var mode atomic.Value // how shard 1 rewrites a partials reply
	mode.Store("")
	f := newTestFleet(t, Config{}, gaussModel(4, items, k), 2, FrontendConfig{ShardTimeout: 5 * time.Second},
		func(i int, next hopAnswer) hopAnswer {
			if i != 1 {
				return next
			}
			return func(st *hopScratch, kind byte, p []byte, err error) []byte {
				reply := next(st, kind, p, err)
				var version string
				_, body, herr := parseReplyHeader(reply, &version)
				if kind != hopPartials || herr != nil {
					return reply
				}
				switch mode.Load() {
				case "short":
					reply = reply[:len(reply)-4]
				case "k":
					kAt := len(reply) - len(body)
					binary.LittleEndian.PutUint32(reply[kAt:], k+1)
				}
				return reply
			}
		})

	req := fleetFoldIn(items)
	for _, m := range []string{"", "short", "k"} {
		mode.Store(m)
		want := http.StatusOK
		if m != "" {
			want = http.StatusBadGateway
		}
		resp, err := http.Post(f.url+"/v1/foldin", "application/json", strings.NewReader(mustJSON(t, req)))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != want || (m != "" && !strings.Contains(e.Error, "shards disagree")) {
			t.Errorf("shard 1 replying %q: HTTP %d %q, want %d", m, resp.StatusCode, e.Error, want)
		}
	}

	// The size: one shard's reply over ten local ratings, as a frame and as
	// the JSON numbers a reply carried before frames.
	sn := f.replicas[0].srv.Current()
	var st hopScratch
	local := st.partials(sn, []int32{0, 3, 6, 9, 12, 15, 18, 21, 24, 27}, []float32{5, 4, 3, 2, 1, 5, 4, 3, 2, 1})
	frame := framing.Append(nil, hopReply,
		appendPartialsReply(appendReplyHeader(nil, http.StatusOK, sn), k, local, st.terms))
	numbers := mustJSON(t, struct {
		K       int       `json:"k"`
		Gram    []float32 `json:"gram"`
		RHS     []float32 `json:"rhs"`
		Local   int       `json:"local"`
		Version string    `json:"version"`
		Seq     uint64    `json:"seq"`
	}{k, st.terms[:len(st.terms)-k], st.terms[len(st.terms)-k:], local, sn.Version, sn.Seq})
	if local != 10 || 2*len(frame) > len(numbers) {
		t.Errorf("partials reply over %d local ratings is a %d-byte frame, JSON numbers %d: want at most half",
			local, len(frame), len(numbers))
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHopStaleReplyNotReused: a shard that answers one request only after
// ShardTimeout leaves its reply on a connection the frontend has given up
// on. That connection is closed, never pooled, so the next leg to the shard
// gets its own answer, not the stale one.
func TestHopStaleReplyNotReused(t *testing.T) {
	const shardTimeout = 200 * time.Millisecond
	var slowed atomic.Bool
	stale := make(chan struct{})
	f := newTestFleet(t, Config{}, linearModel(1, 2, 16, 2), 2,
		FrontendConfig{ShardTimeout: shardTimeout, RetryBackoff: time.Millisecond},
		func(i int, next hopAnswer) hopAnswer {
			if i != 1 {
				return next
			}
			return func(st *hopScratch, kind byte, p []byte, err error) []byte {
				reply := next(st, kind, p, err)
				if kind == hopRecommend && slowed.CompareAndSwap(false, true) {
					time.Sleep(shardTimeout + 100*time.Millisecond)
					defer close(stale)
				}
				return reply
			}
		})

	var first frontAnswer
	if code := getJSON(t, f.url+"/v1/recommend?user=0&n=3", &first); code != 200 {
		t.Fatalf("first request: HTTP %d", code)
	}
	if !first.Partial || first.ShardsOK != 1 {
		t.Fatalf("slow shard: partial=%v shards_ok=%d, want an answer from shard 0 alone", first.Partial, first.ShardsOK)
	}
	<-stale
	time.Sleep(20 * time.Millisecond) // the stale reply is on the wire

	// n=5 this time: a stale n=3 reply from shard 1 would show.
	s, ts := newTestServer(t, Config{})
	s.Swap(linearModel(1, 2, 16, 2), nil, "v1")
	var want RecommendResponse
	if code := getJSON(t, ts.URL+"/v1/recommend?user=0&n=5", &want); code != 200 {
		t.Fatalf("reference: HTTP %d", code)
	}
	var got frontAnswer
	if code := getJSON(t, f.url+"/v1/recommend?user=0&n=5", &got); code != 200 {
		t.Fatalf("second request: HTTP %d", code)
	}
	if got.Partial || fmt.Sprint(got.Items) != fmt.Sprint(want.Items) {
		t.Fatalf("after the timeout: partial=%v items %v, want %v", got.Partial, got.Items, want.Items)
	}
	if text := exposition(t, f.front); !strings.Contains(text, `als_front_shard_dials_total{shard="1"} 2`) {
		t.Errorf("the timed-out connection was not replaced by one new dial:\n%s", text)
	}
}

// TestHopConnectionReuse: sequential requests through the frontend reuse
// one upgraded connection per shard, which als_front_shard_dials_total
// shows.
func TestHopConnectionReuse(t *testing.T) {
	const items = 16
	f := newTestFleet(t, Config{}, linearModel(1, 3, items, 2), 2, FrontendConfig{ShardTimeout: 5 * time.Second}, nil)
	u := int64(1)
	for i := 0; i < 200; i++ {
		if i%5 == 4 {
			req := FoldInRequest{Items: []int32{int32(i % items), int32((i + 7) % items)}, Ratings: []float32{4, 2}, N: 3, User: &u}
			if code := postJSON(t, f.url+"/v1/foldin", req, nil); code != 200 {
				t.Fatalf("request %d (fold-in): HTTP %d", i, code)
			}
			continue
		}
		if code := getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", f.url, i%3, 1+i%7), nil); code != 200 {
			t.Fatalf("request %d: HTTP %d", i, code)
		}
	}
	text := exposition(t, f.front)
	for shard := 0; shard < 2; shard++ {
		var dials float64
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, fmt.Sprintf(`als_front_shard_dials_total{shard="%d"} `, shard)); ok {
				fmt.Sscan(rest, &dials)
			}
		}
		if dials < 1 || dials > 2 {
			t.Errorf("shard %d: %v dials over 200 sequential requests, want 1 or 2\n%s", shard, dials, text)
		}
	}
}

// firstLines is a listener that records the first request line of every
// connection it accepts.
type firstLines struct {
	net.Listener
	mu    sync.Mutex
	lines []string
}

func (l *firstLines) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &firstLineConn{Conn: c, l: l}, nil
}

// seen returns the first lines recorded so far.
func (l *firstLines) seen() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.lines)
}

// firstLineConn copies what it reads until its first line is whole, and
// then hands that line to its listener.
type firstLineConn struct {
	net.Conn
	l    *firstLines
	head []byte
	done bool
}

func (c *firstLineConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	if !c.done {
		c.head = append(c.head, p[:n]...)
		if line, _, ok := bytes.Cut(c.head, []byte("\r\n")); ok {
			c.l.lines, c.done = append(c.l.lines, string(line)), true
		}
	}
	return n, err
}

// TestFrontendSpeaksOnlyFrames: every connection the frontend opens to a
// replica — for the probe, /v1/model, a recommend and a fold-in that purges
// a user — begins with the upgrade to frames, so nothing reaches a shard
// any other way. And the probe follows the rule every leg follows: a
// replica whose staleness bound has lapsed answers info 503 and is marked
// down until a fresh install, and a saturated replica's 429 leaves it up.
func TestFrontendSpeaksOnlyFrames(t *testing.T) {
	const users, items, k = 4, 16, 2
	clk := checkpoint.NewFakeClock(time.Unix(1000, 0))
	fsys := checkpoint.NewMemFS()
	saveCheckpoint(t, fsys, "ckpts", 1, 1, users, items, k)
	var (
		listeners []*firstLines
		servers   []*Server
		watchers  []*Watcher
		urls      []string
	)
	for i := 0; i < 2; i++ {
		// One admission slot each, so a test can fill a replica's queue.
		srv := New(Config{Queue: 1})
		// Shard 0 must have installed a checkpoint within the last minute.
		rcfg := ReplicaConfig{Index: i, Count: 2}
		if i == 0 {
			rcfg.MaxStaleness, rcfg.Clock = time.Minute, clk
		}
		rep, err := NewReplica(srv, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWatcher(srv, WatcherConfig{Dir: "ckpts", FS: fsys, Clock: clk, Transform: rep.Transform})
		if swapped, err := w.Poll(); !swapped || err != nil {
			t.Fatalf("shard %d: first poll = (%v, %v)", i, swapped, err)
		}
		ts := httptest.NewUnstartedServer(rep.Handler())
		l := &firstLines{Listener: ts.Listener}
		ts.Listener = l
		ts.Start()
		t.Cleanup(func() { ts.Close(); rep.Close(); srv.Close() })
		listeners, servers, watchers = append(listeners, l), append(servers, srv), append(watchers, w)
		urls = append(urls, ts.URL)
	}
	front, err := NewFrontend(FrontendConfig{Shards: urls, ShardTimeout: 5 * time.Second, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(func() { fts.Close(); front.Close() })
	ctx := context.Background()

	front.ProbeOnce(ctx)
	if up, total := front.Healthy(); up != total {
		t.Fatalf("fresh fleet: %d/%d up", up, total)
	}
	var model ModelResponse
	if code := getJSON(t, fts.URL+"/v1/model", &model); code != 200 || model.Items != items || model.Users != users || model.K != k {
		t.Fatalf("/v1/model: HTTP %d %+v", code, model)
	}
	if code := getJSON(t, fts.URL+"/v1/recommend?user=0&n=3", nil); code != 200 {
		t.Fatalf("recommend: HTTP %d", code)
	}
	u := int64(1)
	req := FoldInRequest{Items: []int32{1, 9}, Ratings: []float32{5, 3}, N: 3, User: &u}
	if code := postJSON(t, fts.URL+"/v1/foldin", req, nil); code != 200 {
		t.Fatalf("fold-in: HTTP %d", code)
	}
	for i, l := range listeners {
		lines := l.seen()
		if len(lines) == 0 {
			t.Errorf("shard %d: no connection reached it", i)
		}
		for _, line := range lines {
			if !strings.HasPrefix(line, "GET "+hopPath+" ") {
				t.Errorf("shard %d: a connection began with %q, not the upgrade to frames", i, line)
			}
		}
	}

	// Shard 0's checkpoint outlives its staleness bound: its info answer is
	// 503, and the probe marks it down until a fresh checkpoint lands.
	clk.Advance(2 * time.Minute)
	front.ProbeOnce(ctx)
	if front.shards[0].up.Load() || !front.shards[1].up.Load() {
		t.Fatalf("stale shard 0: up = %v, %v; want shard 0 alone down", front.shards[0].up.Load(), front.shards[1].up.Load())
	}
	if text := renderTel(t, servers[0].Telemetry()); !strings.Contains(text, `als_requests_total{endpoint="info",code="503"}`) {
		t.Errorf("stale shard 0 did not answer info 503:\n%s", text)
	}
	saveCheckpoint(t, fsys, "ckpts", 2, 2, users, items, k)
	for i, w := range watchers {
		if swapped, err := w.Poll(); !swapped || err != nil {
			t.Fatalf("shard %d: second poll = (%v, %v)", i, swapped, err)
		}
	}
	front.ProbeOnce(ctx)
	if up, total := front.Healthy(); up != total {
		t.Fatalf("after a fresh install: %d/%d up", up, total)
	}

	// Shard 1's one admission slot is taken: its info answer is 429, which
	// blames the request, not the shard.
	if !servers[1].admit("test") {
		t.Fatal("shard 1's admission slot was not free")
	}
	front.ProbeOnce(ctx)
	servers[1].release()
	if up, total := front.Healthy(); up != total {
		t.Errorf("a saturated shard's 429 changed the fleet to %d/%d up", up, total)
	}
	if text := exposition(t, front); !strings.Contains(text, `als_front_shard_requests_total{shard="1",outcome="rejected"} 1`) {
		t.Errorf("the 429 was not counted as a rejected leg:\n%s", text)
	}
}
