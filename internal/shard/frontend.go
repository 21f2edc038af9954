package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rtrace"
	"repro/internal/serve"
)

// FrontendConfig configures a scatter-gather frontend.
type FrontendConfig struct {
	// Shards are the replica base URLs in shard order, e.g.
	// "http://127.0.0.1:8081". Length defines the fleet size K.
	Shards []string
	// Client overrides the outbound HTTP client (nil builds one with a
	// reasonable connection pool).
	Client *http.Client
	// ShardTimeout is the per-shard deadline for one fan-out leg (default
	// 1s). A shard that misses it is treated as down for that request and
	// the response degrades to the healthy shards' merged results.
	ShardTimeout time.Duration
	// ProbeInterval is the background health-check period (default 2s).
	ProbeInterval time.Duration
	// RetryBackoff is the base for the jittered pause before the single
	// retry of a transiently-failed fan-out leg (default 25ms). The retry
	// runs inside the same per-shard deadline, so a request is only
	// degraded to partial when a shard fails twice within ShardTimeout.
	RetryBackoff time.Duration
	// MaxN caps the per-request recommendation count (default 100).
	MaxN int
	// MaxFoldInItems caps one fold-in request's ratings (default 10000).
	MaxFoldInItems int
	// Lambda is the fold-in regularization fallback when neither the
	// request nor the shards' model metadata supplies one (default 0.1).
	Lambda float32
	// Tracer, when set, records one root span per frontend request with a
	// child span per shard hop (the context rides the traceparent header,
	// so shard-side spans join the same trace) plus merge and fold-in
	// phase spans. Nil disables tracing with zero per-request cost.
	Tracer *rtrace.Tracer
	// SlowLog, when positive, logs requests at or above this duration
	// with their trace ID.
	SlowLog time.Duration
}

func (c *FrontendConfig) setDefaults() {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.MaxN <= 0 {
		c.MaxN = 100
	}
	if c.MaxFoldInItems <= 0 {
		c.MaxFoldInItems = 10000
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.1
	}
}

// shardState is the frontend's per-shard view: liveness (set by the health
// prober and passively by request outcomes) and the last /shard/v1/info.
type shardState struct {
	up   atomic.Bool
	info atomic.Pointer[InfoResponse]
}

// Frontend fans /v1/recommend and /v1/foldin out to a fleet of shard
// replicas and merges their sorted top-N lists in metrics.TopK's order, so
// the merged top-N (including tie-breaking toward lower item indices) is
// identical to a single process scanning the full catalog. A shard that is
// down or misses its deadline degrades the response to the healthy shards'
// merged results — flagged in the response, counted in
// als_shard_partial_total, and reflected by /readyz going 503 while the
// fleet is degraded.
type Frontend struct {
	cfg    FrontendConfig
	client *http.Client
	shards []*shardState
	mux    *http.ServeMux

	reg       *obs.Registry
	partial   *obs.Metric
	requests  *obs.Vec
	latency   *obs.Vec
	shardReqs *obs.Vec
	retries   *obs.Vec
}

var frontLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// NewFrontend builds a frontend over the given shard fleet. Start Run for
// background health probing; requests also mark shards up or down
// passively, so the frontend degrades and recovers even without it.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: frontend needs at least one shard URL")
	}
	cfg.setDefaults()
	f := &Frontend{cfg: cfg, client: cfg.Client, reg: obs.NewRegistry()}
	if f.client == nil {
		f.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	for range cfg.Shards {
		f.shards = append(f.shards, &shardState{})
	}
	f.partial = f.reg.Counter("als_shard_partial_total",
		"Requests answered from fewer than all shards (degraded scatter-gather).").With()
	f.requests = f.reg.Counter("als_front_requests_total",
		"Frontend requests by endpoint and status code.", "endpoint", "code")
	f.latency = f.reg.Histogram("als_front_request_seconds",
		"Frontend request latency by status code.", frontLatencyBuckets, "code")
	cfg.Tracer.Register(f.reg)
	f.shardReqs = f.reg.Counter("als_front_shard_requests_total",
		"Fan-out legs by shard and outcome.", "shard", "outcome")
	f.retries = f.reg.Counter("als_shard_retries_total",
		"Fan-out legs retried after a transient shard failure.", "shard")
	f.reg.Func("als_front_shard_up",
		"Whether the shard answered its last probe or request (1 up, 0 down).",
		obs.Gauge, []string{"shard"}, func() []obs.Sample {
			out := make([]obs.Sample, len(f.shards))
			for i, st := range f.shards {
				v := 0.0
				if st.up.Load() {
					v = 1
				}
				out[i] = obs.Sample{Labels: []string{strconv.Itoa(i)}, Value: v}
			}
			return out
		})

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", f.handleReady)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		f.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /v1/model", f.timed("model", f.handleModel))
	mux.HandleFunc("GET /v1/recommend", f.timed("recommend", f.handleRecommend))
	mux.HandleFunc("POST /v1/foldin", f.timed("foldin", f.handleFoldIn))
	f.mux = mux
	return f, nil
}

// Handler returns the frontend's HTTP routing.
func (f *Frontend) Handler() http.Handler { return f.mux }

// Registry exposes the frontend's metrics (for embedding hosts).
func (f *Frontend) Registry() *obs.Registry { return f.reg }

// timed wraps a handler with the request counter, the latency histogram
// and — when a Tracer is configured — the request's root span (continuing
// an inbound traceparent context). The status-code label is shared by the
// counter and the histogram: one strconv.Itoa per request, so tracing off
// adds no allocations over the untraced path.
func (f *Frontend) timed(endpoint string, h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var span *rtrace.Span
		if f.cfg.Tracer != nil {
			var ctx context.Context
			ctx, span = f.cfg.Tracer.StartRequest(r.Context(), endpoint, rtrace.Extract(r.Header))
			if span != nil {
				r = r.WithContext(ctx)
			}
		}
		sw := obs.NewStatusWriter(w)
		h(sw, r)
		d := time.Since(start)
		code := strconv.Itoa(sw.Code)
		f.requests.With(endpoint, code).Inc()
		f.latency.With(code).Observe(d.Seconds())
		if span != nil {
			span.SetAttr("code", code)
			span.End()
		}
		if f.cfg.SlowLog > 0 && d >= f.cfg.SlowLog {
			log.Printf("alsfront: slow request endpoint=%s code=%s dur=%s trace=%s",
				endpoint, code, d, span.TraceID())
		}
	}
}

// statusError is a non-2xx shard reply; 4xx codes mean the request (not
// the shard) is at fault, so they never mark a shard down.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// Run probes shard health until ctx is cancelled (one immediate sweep,
// then every ProbeInterval).
func (f *Frontend) Run(ctx context.Context) {
	f.ProbeOnce(ctx)
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce health-checks every shard through its public /readyz and, for
// ready shards, refreshes the cached /shard/v1/info.
func (f *Frontend) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range f.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, f.cfg.ShardTimeout)
			defer cancel()
			st := f.shards[i]
			if err := f.getJSON(sctx, i, "/readyz", nil); err != nil {
				st.up.Store(false)
				return
			}
			var info InfoResponse
			if err := f.getJSON(sctx, i, "/shard/v1/info", &info); err == nil {
				st.info.Store(&info)
			}
			st.up.Store(true)
		}(i)
	}
	wg.Wait()
}

// Ready reports fleet health for /readyz: an error while any shard is
// down (the degraded state operators alert on), even though requests keep
// serving partial results from the healthy ones.
func (f *Frontend) Ready() error {
	var down []string
	for i, st := range f.shards {
		if !st.up.Load() {
			down = append(down, strconv.Itoa(i))
		}
	}
	switch {
	case len(down) == len(f.shards):
		return fmt.Errorf("all %d shards down", len(f.shards))
	case len(down) > 0:
		return fmt.Errorf("degraded: shard(s) %s down", strings.Join(down, ","))
	}
	return nil
}

// Healthy returns how many shards are currently marked up.
func (f *Frontend) Healthy() (up, total int) {
	for _, st := range f.shards {
		if st.up.Load() {
			up++
		}
	}
	return up, len(f.shards)
}

func (f *Frontend) handleReady(w http.ResponseWriter, _ *http.Request) {
	if err := f.Ready(); err != nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Write([]byte("ok\n"))
}

// getJSON GETs path from shard i and decodes the response into out (nil
// discards the body). Non-2xx replies surface as *statusError.
func (f *Frontend) getJSON(ctx context.Context, i int, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Shards[i]+path, nil)
	if err != nil {
		return err
	}
	return f.doJSON(ctx, i, req, out)
}

// postJSON POSTs body to path on shard i and decodes the response.
func (f *Frontend) postJSON(ctx context.Context, i int, path string, body, out any) error {
	enc, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.cfg.Shards[i]+path, bytes.NewReader(enc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return f.doJSON(ctx, i, req, out)
}

// doJSON runs one fan-out leg. On a traced request it opens a per-hop child
// span ("shard<i> <path>") and injects its context into the outbound
// traceparent header, so the shard's own middleware span joins the trace.
func (f *Frontend) doJSON(ctx context.Context, i int, req *http.Request, out any) error {
	var hop *rtrace.Span
	if rtrace.Active(ctx) {
		_, hop = rtrace.StartChild(ctx, "shard"+strconv.Itoa(i)+" "+req.URL.Path)
		hop.SetAttr("shard", strconv.Itoa(i))
		rtrace.Inject(req.Header, hop.Context())
		defer hop.End()
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if hop != nil {
			hop.SetAttr("error", err.Error())
		}
		return err
	}
	defer resp.Body.Close()
	if hop != nil {
		hop.SetAttr("code", strconv.Itoa(resp.StatusCode))
	}
	if resp.StatusCode/100 != 2 {
		msg := fmt.Sprintf("shard replied %d", resp.StatusCode)
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &statusError{code: resp.StatusCode, msg: msg}
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scatter runs fn for every shard concurrently under the per-shard
// deadline and returns the per-shard outcomes. A transient failure — a
// transport error or a 5xx reply — is retried once after a jittered
// backoff, still inside the same per-shard deadline, so one flaky response
// does not degrade the answer to partial. Transport failures and 5xx
// replies that survive the retry mark the shard down (and a later success
// marks it back up), so request traffic itself drives degradation and
// recovery.
func (f *Frontend) scatter(ctx context.Context, fn func(ctx context.Context, i int) error) []error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i := range f.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, f.cfg.ShardTimeout)
			defer cancel()
			err := fn(sctx, i)
			if retryable(err) && sctx.Err() == nil {
				f.retries.With(strconv.Itoa(i)).Inc()
				pause := time.NewTimer(f.cfg.RetryBackoff/2 +
					time.Duration(rand.Int63n(int64(f.cfg.RetryBackoff))))
				select {
				case <-sctx.Done():
					pause.Stop()
				case <-pause.C:
					err = fn(sctx, i)
				}
			}
			errs[i] = err
			outcome := "ok"
			var se *statusError
			switch {
			case err == nil:
				f.shards[i].up.Store(true)
			case errors.As(err, &se) && se.code < 500:
				// The request is at fault, not the shard.
				outcome = "rejected"
			default:
				outcome = "error"
				f.shards[i].up.Store(false)
			}
			f.shardReqs.With(strconv.Itoa(i), outcome).Inc()
		}(i)
	}
	wg.Wait()
	return errs
}

// retryable reports whether a fan-out leg's failure is worth one more try:
// transport errors and 5xx replies are transient (a hiccup, a restarting
// replica), while 4xx replies blame the request and a spent deadline
// leaves no time to try again.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

// anyInfo returns the freshest cached shard info, fetching one
// synchronously when nothing is cached yet.
func (f *Frontend) anyInfo(ctx context.Context) *InfoResponse {
	var best *InfoResponse
	for _, st := range f.shards {
		if in := st.info.Load(); in != nil && (best == nil || in.Seq > best.Seq) {
			best = in
		}
	}
	if best != nil {
		return best
	}
	for i := range f.shards {
		sctx, cancel := context.WithTimeout(ctx, f.cfg.ShardTimeout)
		var info InfoResponse
		err := f.getJSON(sctx, i, "/shard/v1/info", &info)
		cancel()
		if err == nil {
			f.shards[i].info.Store(&info)
			return &info
		}
	}
	return nil
}

// RecommendResponse is the frontend's /v1/recommend answer: the standard
// serving response plus the scatter-gather outcome.
type RecommendResponse struct {
	serve.RecommendResponse
	Partial  bool `json:"partial,omitempty"`
	ShardsOK int  `json:"shards_ok"`
	Shards   int  `json:"shards"`
}

func (f *Frontend) handleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := strconv.ParseInt(q.Get("user"), 10, 64)
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "user must be an integer")
		return
	}
	n := 10
	if v := q.Get("n"); v != "" {
		n, err = strconv.Atoi(v)
		if err != nil || n <= 0 || n > f.cfg.MaxN {
			obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("n must be in [1,%d]", f.cfg.MaxN))
			return
		}
	}
	results := make([]*serve.RecommendResponse, len(f.shards))
	path := fmt.Sprintf("/v1/recommend?user=%d&n=%d", user, n)
	errs := f.scatter(r.Context(), func(ctx context.Context, i int) error {
		var resp serve.RecommendResponse
		if err := f.getJSON(ctx, i, path, &resp); err != nil {
			return err
		}
		results[i] = &resp
		return nil
	})
	ok := countOK(errs)
	if ok == 0 {
		failAllShards(w, errs)
		return
	}
	_, mspan := rtrace.StartChild(r.Context(), "merge")
	merged, version, seq := mergeItems(results, n)
	mspan.End()
	resp := RecommendResponse{
		RecommendResponse: serve.RecommendResponse{
			Version: version, Seq: seq, User: user, Items: merged,
		},
		Partial: ok < len(f.shards), ShardsOK: ok, Shards: len(f.shards),
	}
	if resp.Partial {
		f.partial.Inc()
	}
	obs.WriteJSON(w, resp)
}

// FoldInResponse is the frontend's /v1/foldin answer.
type FoldInResponse struct {
	serve.FoldInResponse
	Partial  bool `json:"partial,omitempty"`
	ShardsOK int  `json:"shards_ok"`
	Shards   int  `json:"shards"`
}

// handleFoldIn solves a cold-start user across the fleet: every shard
// contributes the partial Gram/RHS terms of its item slice, the frontend
// sums them, adds λI once and solves the k×k system (packed Cholesky with
// the same LDLᵀ fallback as core.Model.FoldInUser), then scatter-gathers
// the scoring of the solved factor. The write path finishes by purging the
// user's cached responses on every shard — not just the ones that answered
// — so no replica can serve a pre-write recommendation from its LRU.
func (f *Frontend) handleFoldIn(w http.ResponseWriter, r *http.Request) {
	var req serve.FoldInRequest
	if !serve.DecodeJSON(w, r, serve.FoldInBodyLimit(f.cfg.MaxFoldInItems), &req) {
		return
	}
	if len(req.Items) == 0 {
		obs.HTTPError(w, http.StatusBadRequest, "need at least one rating")
		return
	}
	if len(req.Items) > f.cfg.MaxFoldInItems {
		obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("at most %d ratings per request", f.cfg.MaxFoldInItems))
		return
	}
	if len(req.Items) != len(req.Ratings) {
		obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("%d items but %d ratings", len(req.Items), len(req.Ratings)))
		return
	}
	if req.N <= 0 {
		req.N = 10
	}
	if req.N > f.cfg.MaxN {
		obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("n must be in [1,%d]", f.cfg.MaxN))
		return
	}
	info := f.anyInfo(r.Context())
	seen := make(map[int32]struct{}, len(req.Items))
	for j, it := range req.Items {
		if it < 0 || (info != nil && int(it) >= info.TotalItems) {
			obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("item %d out of range", it))
			return
		}
		if _, dup := seen[it]; dup {
			obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("duplicate item %d in fold-in ratings", it))
			return
		}
		seen[it] = struct{}{}
		if v := float64(req.Ratings[j]); math.IsNaN(v) || math.IsInf(v, 0) {
			obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("rating for item %d is %g", it, v))
			return
		}
	}

	// Phase 1: gather partial normal equations. Each phase runs under its
	// own span so its per-shard hop spans nest beneath it.
	partials := make([]*PartialsResponse, len(f.shards))
	preq := PartialsRequest{Items: req.Items, Ratings: req.Ratings}
	pctx, pspan := rtrace.StartChild(r.Context(), "foldin.partials")
	errs := f.scatter(pctx, func(ctx context.Context, i int) error {
		var resp PartialsResponse
		if err := f.postJSON(ctx, i, "/shard/v1/partials", preq, &resp); err != nil {
			return err
		}
		partials[i] = &resp
		return nil
	})
	pspan.End()
	ok := countOK(errs)
	if ok == 0 {
		failAllShards(w, errs)
		return
	}
	degraded := ok < len(f.shards)
	k := 0
	for _, p := range partials {
		if p != nil {
			k = p.K
			break
		}
	}
	packed := make([]float32, linalg.PackedLen(k))
	rhs := make([]float32, k)
	for _, p := range partials {
		if p == nil {
			continue
		}
		if p.K != k || len(p.Gram) != len(packed) || len(p.RHS) != k {
			obs.HTTPError(w, http.StatusBadGateway, "shards disagree on model dimensionality")
			return
		}
		for z, v := range p.Gram {
			packed[z] += v
		}
		for z, v := range p.RHS {
			rhs[z] += v
		}
	}
	lam := req.Lambda
	if lam <= 0 {
		switch {
		case info != nil && info.Lambda > 0 && info.WeightedLambda:
			lam = info.Lambda * float32(len(req.Items))
		case info != nil && info.Lambda > 0:
			lam = info.Lambda
		default:
			lam = f.cfg.Lambda
		}
	}
	// Keep pristine copies: a rejected Cholesky clobbers its inputs.
	pcopy := append([]float32(nil), packed...)
	rcopy := append([]float32(nil), rhs...)
	_, sspan := rtrace.StartChild(r.Context(), "foldin.solve")
	linalg.AddDiagPacked(packed, k, lam)
	xu := rhs
	if err := linalg.CholeskySolvePacked(packed, k, xu); err != nil {
		linalg.AddDiagPacked(pcopy, k, lam)
		if err := linalg.LDLSolvePacked(pcopy, k, rcopy, make([]float64, k)); err != nil {
			sspan.End()
			obs.HTTPError(w, http.StatusBadGateway, "fold-in solve: "+err.Error())
			return
		}
		xu = rcopy
	}
	sspan.End()

	// Phase 2: scatter the solved factor for scoring (the user's own rated
	// items excluded, as in the single-process path).
	scores := make([]*serve.RecommendResponse, len(f.shards))
	sreq := ScoreRequest{X: xu, N: req.N, Exclude: req.Items}
	scctx, scspan := rtrace.StartChild(r.Context(), "foldin.score")
	errs = f.scatter(scctx, func(ctx context.Context, i int) error {
		var resp ScoreResponse
		if err := f.postJSON(ctx, i, "/shard/v1/score", sreq, &resp); err != nil {
			return err
		}
		scores[i] = &serve.RecommendResponse{Version: resp.Version, Seq: resp.Seq, Items: resp.Items}
		return nil
	})
	scspan.End()
	ok = countOK(errs)
	if ok == 0 {
		failAllShards(w, errs)
		return
	}
	degraded = degraded || ok < len(f.shards)

	// Write-path cache invalidation: broadcast the purge to every
	// configured shard — including any that missed the partials or scoring
	// deadline — so a recovering replica cannot serve the user's pre-write
	// recommendations out of its LRU.
	if req.User != nil {
		puctx, puspan := rtrace.StartChild(r.Context(), "foldin.purge")
		f.scatter(puctx, func(ctx context.Context, i int) error {
			return f.postJSON(ctx, i, "/shard/v1/purge", PurgeRequest{User: *req.User}, nil)
		})
		puspan.End()
	}

	_, mspan := rtrace.StartChild(r.Context(), "merge")
	merged, version, seq := mergeItems(scores, req.N)
	mspan.End()
	resp := FoldInResponse{
		FoldInResponse: serve.FoldInResponse{Version: version, Seq: seq, Items: merged},
		Partial:        degraded, ShardsOK: ok, Shards: len(f.shards),
	}
	if degraded {
		f.partial.Inc()
	}
	obs.WriteJSON(w, resp)
}

// handleModel aggregates the fleet's /shard/v1/info into the standard
// /v1/model discovery answer (full catalog size, shared user count).
func (f *Frontend) handleModel(w http.ResponseWriter, r *http.Request) {
	infos := make([]*InfoResponse, len(f.shards))
	errs := f.scatter(r.Context(), func(ctx context.Context, i int) error {
		var info InfoResponse
		if err := f.getJSON(ctx, i, "/shard/v1/info", &info); err != nil {
			return err
		}
		f.shards[i].info.Store(&info)
		infos[i] = &info
		return nil
	})
	if countOK(errs) == 0 {
		failAllShards(w, errs)
		return
	}
	var best *InfoResponse
	for _, in := range infos {
		if in != nil && (best == nil || in.Seq > best.Seq) {
			best = in
		}
	}
	obs.WriteJSON(w, serve.ModelResponse{
		Version: best.Version, Seq: best.Seq,
		Users: best.Users, Items: best.TotalItems, K: best.K,
		Compact: best.Compact,
	})
}

// mergeItems merges per-shard top-N lists. Shards report disjoint global
// item indices, each list strongest first under the order metrics.TopK
// keeps (higher score, then lower item index), so taking the strongest
// head n times is deterministic and identical to a single-process scan of
// the full catalog — with no heap and no item → entry map to carry the IDs
// back. The reported version/seq is the newest among the answering shards
// (they briefly diverge mid-swap).
func mergeItems(results []*serve.RecommendResponse, n int) ([]serve.RecItem, string, uint64) {
	version, seq := "", uint64(0)
	total := 0
	// One cursor per shard, on the stack for any fleet this frontend is
	// likely to see (append moves a wider one to the heap).
	var stack [16]int
	next := stack[:0]
	for _, res := range results {
		next = append(next, 0)
		if res == nil {
			continue
		}
		if res.Seq >= seq {
			version, seq = res.Version, res.Seq
		}
		total += len(res.Items)
	}
	out := make([]serve.RecItem, 0, max(0, min(n, total)))
	for len(out) < cap(out) {
		best := -1
		var head serve.RecItem
		for si, res := range results {
			if res == nil || next[si] == len(res.Items) {
				continue
			}
			it := res.Items[next[si]]
			if best < 0 || it.Score > head.Score || (it.Score == head.Score && it.Item < head.Item) {
				best, head = si, it
			}
		}
		next[best]++
		out = append(out, head)
	}
	return out, version, seq
}

func countOK(errs []error) int {
	n := 0
	for _, err := range errs {
		if err == nil {
			n++
		}
	}
	return n
}

// failAllShards reports a request no shard could answer: a 4xx consensus
// (e.g. unknown user) passes through, anything else is 503.
func failAllShards(w http.ResponseWriter, errs []error) {
	var se *statusError
	for _, err := range errs {
		if errors.As(err, &se) && se.code < 500 {
			obs.HTTPError(w, se.code, se.msg)
			return
		}
	}
	msg := "no shard answered"
	for _, err := range errs {
		if err != nil {
			msg = err.Error()
			break
		}
	}
	obs.HTTPError(w, http.StatusServiceUnavailable, msg)
}
