package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestDebugServerEndpoints(t *testing.T) {
	rec := NewTrainRecorder()
	reg := NewRegistry()
	rec.Register(reg)
	RegisterProcessMetrics(reg)
	driveRecorder(rec)

	d, err := StartDebugServer("127.0.0.1:0", DebugConfig{Registry: reg, RunInfo: func() any { return rec.RunInfo() }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if ctype != "text/plain; version=0.0.4" {
		t.Errorf("metrics content type = %q", ctype)
	}
	if _, err := ValidateExposition(io.NopCloser(readerOf(body))); err != nil {
		t.Errorf("metrics do not validate: %v", err)
	}

	body, ctype = get("/runinfo")
	if ctype != "application/json" {
		t.Errorf("runinfo content type = %q", ctype)
	}
	var info TrainRunInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("runinfo is not JSON: %v", err)
	}
	if info.Halves != 2 {
		t.Errorf("runinfo halves = %d, want 2", info.Halves)
	}

	get("/debug/pprof/cmdline")
	get("/debug/pprof/heap?debug=1")
}

// TestDebugMuxProbes drives /healthz and /readyz through httptest: an
// unset probe answers 200, a failing probe answers 503 with the reason, and
// a probe flipping healthy is reflected on the next request.
func TestDebugMuxProbes(t *testing.T) {
	var mu sync.Mutex
	readyErr := errors.New("no model installed")
	mux := DebugMux(DebugConfig{
		Registry: NewRegistry(),
		Ready: func() error {
			mu.Lock()
			defer mu.Unlock()
			return readyErr
		},
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	probe := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	// No Live probe configured: liveness is unconditionally OK.
	if code, body := probe("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// The readiness probe fails: 503 carrying the reason.
	if code, body := probe("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no model installed") {
		t.Fatalf("/readyz = %d %q, want 503 with reason", code, body)
	}
	mu.Lock()
	readyErr = nil
	mu.Unlock()
	if code, body := probe("/readyz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/readyz after recovery = %d %q", code, body)
	}
	// The rest of the mux serves alongside the probes.
	if code, _ := probe("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
}

// TestDebugMuxLiveProbe: a failing liveness probe turns /healthz into 503.
func TestDebugMuxLiveProbe(t *testing.T) {
	mux := DebugMux(DebugConfig{Live: func() error { return errors.New("deadlocked") }})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "deadlocked") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
}

// TestDebugMuxTraceMounts: the optional trace handlers mount only when
// configured, and the mux 404s the routes otherwise.
func TestDebugMuxTraceMounts(t *testing.T) {
	status := func(mux http.Handler, path string) int {
		t.Helper()
		ts := httptest.NewServer(mux)
		defer ts.Close()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bare := DebugMux(DebugConfig{})
	if code := status(bare, "/debug/traces"); code != http.StatusNotFound {
		t.Errorf("unconfigured /debug/traces = %d, want 404", code)
	}
	marker := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	})
	wired := DebugMux(DebugConfig{Traces: marker, Slowest: marker})
	if code := status(wired, "/debug/traces"); code != http.StatusOK {
		t.Errorf("/debug/traces = %d, want 200", code)
	}
	if code := status(wired, "/debug/slowest"); code != http.StatusOK {
		t.Errorf("/debug/slowest = %d, want 200", code)
	}
}

func readerOf(s string) io.Reader { return &stringReader{s: s} }

type stringReader struct{ s string }

func (r *stringReader) Read(p []byte) (int, error) {
	if r.s == "" {
		return 0, io.EOF
	}
	n := copy(p, r.s)
	r.s = r.s[n:]
	return n, nil
}

// TestStatusWriterAndJSONReplies pins the bytes, headers and recorded codes
// of the reply helpers every /v1, /shard/v1 and /admin handler goes through,
// from many goroutines at once: each request owns its StatusWriter, so the
// captured codes must never mix. (The frontend middleware's end of this is
// shard.TestTimedStatusCodesConcurrent.)
func TestStatusWriterAndJSONReplies(t *testing.T) {
	cases := []struct {
		reply    func(w http.ResponseWriter)
		code     int
		wantBody string
	}{
		{func(w http.ResponseWriter) { WriteJSON(w, map[string]int{"n": 3}) }, 200, "{\"n\":3}\n"},
		{func(w http.ResponseWriter) { HTTPError(w, 404, "unknown user 9") }, 404, "{\"error\":\"unknown user 9\"}\n"},
		{func(w http.ResponseWriter) { HTTPError(w, 429, "server saturated, retry later") }, 429, "{\"error\":\"server saturated, retry later\"}\n"},
		{func(w http.ResponseWriter) {}, 200, ""}, // never wrote a header
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		tc := cases[i%len(cases)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			sw := NewStatusWriter(rr)
			tc.reply(sw)
			if sw.Code != tc.code || rr.Code != tc.code {
				t.Errorf("recorded code %d, sent %d, want %d", sw.Code, rr.Code, tc.code)
			}
			if got := rr.Body.String(); got != tc.wantBody {
				t.Errorf("body %q, want %q", got, tc.wantBody)
			}
			if ct := rr.Header().Get("Content-Type"); tc.wantBody != "" && ct != "application/json" {
				t.Errorf("content type %q", ct)
			}
		}()
	}
	wg.Wait()
}
