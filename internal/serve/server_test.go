package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// linearModel builds a model whose score for (u, i) is exactly scale*i:
// X rows are (scale, 0, ...), Y rows are (i, 0, ...). The closed-form score
// lets the hot-swap stress test verify responses against the version they
// claim to come from.
func linearModel(scale float32, users, items, k int) *core.Model {
	x := linalg.NewDense(users, k)
	for u := 0; u < users; u++ {
		x.Set(u, 0, scale)
	}
	y := linalg.NewDense(items, k)
	for i := 0; i < items; i++ {
		y.Set(i, 0, float32(i))
	}
	return &core.Model{K: k, X: x, Y: y}
}

// singleRating returns a rated set where user 0 rated exactly item `item`.
func singleRating(users, items, item int) *sparse.CSR {
	coo := sparse.NewCOO(users, items)
	coo.Append(0, item, 5)
	coo.Rows, coo.Cols = users, items
	m, err := coo.ToCSR()
	if err != nil {
		panic(err)
	}
	return m
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
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

func postJSON(t *testing.T, url string, body any, out any) int {
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

func TestRecommendEndpoint(t *testing.T) {
	const users, items = 4, 64
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Swap(linearModel(1, users, items, 4), singleRating(users, items, items-1), "m1")

	var resp RecommendResponse
	if code := getJSON(t, ts.URL+"/v1/recommend?user=0&n=3", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	// user 0 rated the strongest item (items-1), so the top 3 are the next ones.
	want := []int{items - 2, items - 3, items - 4}
	if len(resp.Items) != 3 {
		t.Fatalf("items = %+v", resp.Items)
	}
	for i, it := range resp.Items {
		if it.Item != want[i] || it.Score != float64(want[i]) {
			t.Fatalf("rank %d: got %+v, want item %d", i, it, want[i])
		}
	}
	if resp.Version != "m1" || resp.Cached {
		t.Fatalf("resp = %+v", resp)
	}

	// Identical query: served from cache.
	var again RecommendResponse
	getJSON(t, ts.URL+"/v1/recommend?user=0&n=3", &again)
	if !again.Cached {
		t.Fatal("second identical request not cached")
	}
	if hits, _ := s.cache.Stats(); hits != 1 {
		t.Fatalf("cache hits = %d", hits)
	}

	// User 1 rated nothing: the true top item is included.
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=1", &resp)
	if resp.Items[0].Item != items-1 {
		t.Fatalf("unrated user top = %+v", resp.Items)
	}
}

func TestRecommendErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxN: 20})
	// No model yet: everything model-backed is 503.
	if code := getJSON(t, ts.URL+"/v1/recommend?user=0", nil); code != 503 {
		t.Fatalf("no-model status %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 503 {
		t.Fatalf("healthz without model = %d", code)
	}
	s.Swap(linearModel(1, 4, 16, 2), nil, "")

	cases := []struct {
		url  string
		want int
	}{
		{"/v1/recommend?user=abc", 400},
		{"/v1/recommend", 400},            // missing user
		{"/v1/recommend?user=99", 404},    // unknown user
		{"/v1/recommend?user=0&n=0", 400}, // n out of range
		{"/v1/recommend?user=0&n=21", 400},
		{"/v1/nope", 404},
		{"/healthz", 200},
	}
	for _, c := range cases {
		if code := getJSON(t, ts.URL+c.url, nil); code != c.want {
			t.Errorf("GET %s = %d, want %d", c.url, code, c.want)
		}
	}
	// Method mismatch on a registered pattern.
	resp, err := http.Post(ts.URL+"/v1/recommend?user=0", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/recommend = %d", resp.StatusCode)
	}
}

func TestFoldInEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const items, k = 400, 6
	m := &core.Model{K: k, X: linalg.NewDense(1, k), Y: randomDense(rng, items, k)}
	s, ts := newTestServer(t, Config{Workers: 2})
	s.Swap(m, nil, "f1")

	req := FoldInRequest{Items: []int32{3, 10, 77}, Ratings: []float32{5, 4, 1}, N: 5}
	var resp FoldInResponse
	if code := postJSON(t, ts.URL+"/v1/foldin", req, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Items) != 5 || resp.Version != "f1" {
		t.Fatalf("resp = %+v", resp)
	}
	for _, it := range resp.Items {
		for _, rated := range req.Items {
			if it.Item == int(rated) {
				t.Fatalf("fold-in recommended an item the user just rated: %+v", it)
			}
		}
	}
}

func TestFoldInErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxN: 20, MaxFoldInItems: 4})
	s.Swap(linearModel(1, 2, 16, 2), nil, "")
	url := ts.URL + "/v1/foldin"

	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty", FoldInRequest{}, 400},
		{"length mismatch", FoldInRequest{Items: []int32{1, 2}, Ratings: []float32{5}}, 400},
		{"duplicate item", FoldInRequest{Items: []int32{3, 3}, Ratings: []float32{5, 4}}, 400},
		{"out of range", FoldInRequest{Items: []int32{99}, Ratings: []float32{5}}, 400},
		{"too many ratings", FoldInRequest{Items: []int32{1, 2, 3, 4, 5}, Ratings: []float32{1, 2, 3, 4, 5}}, 400},
		{"n too large", FoldInRequest{Items: []int32{1}, Ratings: []float32{5}, N: 21}, 400},
	}
	for _, c := range cases {
		if code := postJSON(t, url, c.body, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	resp, err := http.Post(url, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: %d", resp.StatusCode)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Timeout: time.Nanosecond})
	s.Swap(linearModel(1, 2, 2048, 4), nil, "")
	if code := getJSON(t, ts.URL+"/v1/recommend?user=0", nil); code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline returned %d, want 504", code)
	}
}

func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 2})
	s.Swap(linearModel(1, 2, 64, 2), nil, "")

	// Saturate the admission queue directly: deterministic, no timing games.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, err := http.Get(ts.URL + "/v1/recommend?user=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("429 Retry-After = %q, want \"1\"", ra)
	}
	<-s.sem
	<-s.sem
	if code := getJSON(t, ts.URL+"/v1/recommend?user=0", nil); code != 200 {
		t.Fatalf("drained server returned %d", code)
	}
	body := fetchMetrics(t, ts)
	if !strings.Contains(body, `als_shed_total{endpoint="recommend"} 1`) {
		t.Fatalf("shed counter missing:\n%s", body)
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.Swap(linearModel(1, 2, 64, 2), nil, "vX")
	getJSON(t, ts.URL+"/v1/recommend?user=0&n=2", nil)
	getJSON(t, ts.URL+"/v1/recommend?user=0&n=2", nil) // cache hit
	getJSON(t, ts.URL+"/v1/recommend?user=999", nil)   // 404

	body := fetchMetrics(t, ts)
	for _, want := range []string{
		`als_requests_total{endpoint="recommend",code="200"} 2`,
		`als_requests_total{endpoint="recommend",code="404"} 1`,
		`als_request_seconds_count{code="200"} 2`,
		`als_request_seconds_count{code="404"} 1`,
		"als_cache_hits_total 1",
		"als_cache_misses_total 1",
		`als_model_info{version="vX",seq="1"} 1`,
		"als_model_swaps_total 1",
		"als_inflight_requests 0",
		`als_request_seconds_bucket{code="200",le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSwapEndpointAndVersioning(t *testing.T) {
	m := linearModel(1, 3, 8, 2)
	m.Meta = core.Meta{Version: "meta-v", Lambda: 0.1}
	path := saveModel(t, m)

	s, ts := newTestServer(t, Config{Workers: 1})
	s.Swap(linearModel(1, 3, 8, 2), nil, "") // unversioned: becomes v1
	if got := s.Current().Version; got != "v1" {
		t.Fatalf("default version = %q", got)
	}
	// Warm the cache, then swap via the admin endpoint.
	getJSON(t, ts.URL+"/v1/recommend?user=0", nil)
	if s.cache.Len() == 0 {
		t.Fatal("cache not warmed")
	}

	var resp swapResponse
	if code := postJSON(t, ts.URL+"/admin/swap", swapRequest{Model: path}, &resp); code != 200 {
		t.Fatalf("swap status %d", code)
	}
	if resp.Version != "meta-v" || resp.Seq != 2 || resp.Users != 3 || resp.Items != 8 {
		t.Fatalf("swap resp = %+v", resp)
	}
	if s.cache.Len() != 0 {
		t.Fatal("hot-swap did not purge the cache")
	}
	var mi ModelResponse
	getJSON(t, ts.URL+"/v1/model", &mi)
	if mi.Version != "meta-v" || mi.K != 2 {
		t.Fatalf("model info = %+v", mi)
	}

	if code := postJSON(t, ts.URL+"/admin/swap", swapRequest{Model: path + ".missing"}, nil); code != 400 {
		t.Fatalf("missing model file swap = %d", code)
	}
	if code := postJSON(t, ts.URL+"/admin/swap", swapRequest{}, nil); code != 400 {
		t.Fatalf("empty swap = %d", code)
	}
}

// TestHotSwapStress hammers the server with concurrent reads while another
// goroutine hot-swaps between two models with distinguishable factors.
// Every response must be internally consistent: the scores must match the
// model the response's version claims. Run under -race this is the torn-
// model detector the acceptance criteria require.
func TestHotSwapStress(t *testing.T) {
	const users, items, k = 8, 512, 4
	modelA := linearModel(1, users, items, k) // score = i
	modelB := linearModel(2, users, items, k) // score = 2i
	s, ts := newTestServer(t, Config{Workers: 4, Queue: 256, CacheSize: 64})
	s.Swap(modelA, nil, "A")

	swaps := 60
	readers := 4
	perReader := 150
	if testing.Short() {
		swaps, perReader = 15, 40
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				s.Swap(modelB, nil, "B")
			} else {
				s.Swap(modelA, nil, "A")
			}
			time.Sleep(200 * time.Microsecond)
		}
		stop.Store(true)
	}()

	errc := make(chan error, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < perReader || !stop.Load(); i++ {
				u := (r*perReader + i) % users
				resp, err := client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=5", ts.URL, u))
				if err != nil {
					errc <- err
					return
				}
				var rec RecommendResponse
				err = json.NewDecoder(resp.Body).Decode(&rec)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				scale := 1.0
				if rec.Version == "B" {
					scale = 2.0
				} else if rec.Version != "A" {
					errc <- fmt.Errorf("unknown version %q", rec.Version)
					return
				}
				for _, it := range rec.Items {
					if it.Score != scale*float64(it.Item) {
						errc <- fmt.Errorf("torn model: version %s item %d score %g",
							rec.Version, it.Item, it.Score)
						return
					}
				}
				if i > perReader*10 { // safety valve if the swapper stalls
					break
				}
			}
			errc <- nil
		}()
	}
	wg.Wait()
	for r := 0; r < readers; r++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Current().Seq; got != uint64(swaps)+1 {
		t.Fatalf("seq = %d, want %d", got, swaps+1)
	}
}

// paddedBody returns a JSON object of exactly size bytes: prefix (an object
// without its closing brace), blanks, "}". The padding sits inside the
// value, so the decoder has to read all of it.
func paddedBody(prefix string, size int64) string {
	return prefix + strings.Repeat(" ", int(size)-len(prefix)-1) + "}"
}

// TestRequestBodyLimits: every JSON endpoint — a server's, a replica's and
// the frontend's — stops reading at a limit derived from what it can accept
// and answers 413 past it; a body of exactly the limit is decoded and judged
// on its content. (The replica's hop frames have the same rule and their own
// test, TestHopBodyLimits.)
func TestRequestBodyLimits(t *testing.T) {
	cfg := Config{Workers: 1, MaxFoldInItems: 4}
	m := linearModel(1, 2, 16, 2)
	s, ts := newTestServer(t, cfg)
	s.Swap(m, nil, "")
	f := newTestFleet(t, cfg, m, 2, FrontendConfig{MaxFoldInItems: cfg.MaxFoldInItems}, nil)
	cases := []struct {
		name, url, prefix string
		limit             int64
		atLimit           int // status for a body of exactly limit bytes
	}{
		{"foldin", ts.URL + "/v1/foldin", `{"items":[1],"ratings":[5]`, foldInBodyLimit(4), 200},
		{"swap", ts.URL + "/admin/swap", `{"model":""`, smallBodyLimit, 400},
		{"replica swap", f.front.cfg.Shards[0] + "/admin/swap", `{"model":""`, smallBodyLimit, 400},
		{"frontend foldin", f.url + "/v1/foldin", `{"items":[1],"ratings":[5]`, foldInBodyLimit(4), 200},
	}
	for _, c := range cases {
		for _, over := range []int64{0, 1} {
			resp, err := http.Post(c.url, "application/json", strings.NewReader(paddedBody(c.prefix, c.limit+over)))
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
			if over > 0 && !strings.Contains(e.Error, "exceeds") {
				t.Errorf("%s: 413 without the JSON error body: %q", c.name, e.Error)
			}
		}
	}
}
