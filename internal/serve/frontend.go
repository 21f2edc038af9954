package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/rtrace"
)

// FrontendConfig configures a scatter-gather frontend.
type FrontendConfig struct {
	// Shards are the replica base URLs in shard order, e.g.
	// "http://127.0.0.1:8081". Length defines the fleet size K.
	Shards []string
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
	// Tracer, when set, records one root span per frontend request with a
	// child span per shard hop (the context rides in the hop's request
	// frame, so shard-side spans join the same trace) plus merge and
	// fold-in phase spans. Nil disables tracing with zero per-request cost.
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
}

// shardState is the frontend's per-shard view: liveness (set by the health
// prober and passively by request outcomes) and the last /shard/v1/info.
type shardState struct {
	up   atomic.Bool
	info atomic.Pointer[infoResponse]
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
	client *http.Client // the probe's /readyz and /shard/v1/info
	shards []*shardState
	hops   []*hopPool // one per shard
	mux    *http.ServeMux

	reg       *obs.Registry
	partial   *obs.Metric
	requests  *obs.Vec
	latency   *obs.Vec
	shardReqs *obs.Vec
	retries   *obs.Vec
}

// NewFrontend builds a frontend over the given shard fleet. Start Run for
// background health probing; requests also mark shards up or down
// passively, so the frontend degrades and recovers even without it.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("serve: frontend needs at least one shard URL")
	}
	cfg.setDefaults()
	f := &Frontend{cfg: cfg, reg: obs.NewRegistry()}
	f.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
	}}
	dials := f.reg.Counter("als_front_shard_dials_total",
		"Connections dialed and upgraded to the shard hop's frames, by shard.", "shard")
	for i, base := range cfg.Shards {
		u, err := url.Parse(base)
		if err != nil || u.Scheme != "http" || u.Host == "" {
			return nil, fmt.Errorf("serve: shard URL %q is not http://host:port", base)
		}
		addr := u.Host
		if u.Port() == "" {
			addr = net.JoinHostPort(u.Hostname(), "80")
		}
		f.shards = append(f.shards, &shardState{})
		f.hops = append(f.hops, &hopPool{addr: addr, host: u.Host, path: u.Path + hopPath,
			dials: dials.With(strconv.Itoa(i))})
	}
	f.partial = f.reg.Counter("als_shard_partial_total",
		"Requests answered from fewer than all shards (degraded scatter-gather).").With()
	f.requests = f.reg.Counter("als_front_requests_total",
		"Frontend requests by endpoint and status code.", "endpoint", "code")
	f.latency = f.reg.Histogram("als_front_request_seconds",
		"Frontend request latency by status code.", latencyBuckets, "code")
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
	mux.HandleFunc("GET /readyz", probeHandler(f.Ready))
	mux.HandleFunc("GET /metrics", metricsHandler(f.reg))
	// The shared request middleware, bare: the shards own admission control
	// and ShardTimeout bounds every leg, so the frontend adds neither a queue
	// nor a deadline of its own.
	mw := middleware{who: "alsfront", tracer: cfg.Tracer, slowLog: cfg.SlowLog, observe: f.observe}
	mux.HandleFunc("GET /v1/model", mw.wrap("model", f.handleModel))
	mux.HandleFunc("GET /v1/recommend", mw.wrap("recommend", f.handleRecommend))
	mux.HandleFunc("POST /v1/foldin", mw.wrap("foldin", f.handleFoldIn))
	f.mux = mux
	return f, nil
}

// Handler returns the frontend's HTTP routing.
func (f *Frontend) Handler() http.Handler { return f.mux }

// Close drops the frontend's idle shard connections, frame and probe
// alike; a connection in use is closed when its leg returns it.
func (f *Frontend) Close() {
	for _, p := range f.hops {
		p.close()
	}
	f.client.CloseIdleConnections()
}

// Registry exposes the frontend's metrics (for embedding hosts).
func (f *Frontend) Registry() *obs.Registry { return f.reg }

// observe records one finished request. The status-code label is shared by
// the counter and the histogram: one strconv.Itoa per request.
func (f *Frontend) observe(endpoint string, code int, d time.Duration) {
	c := strconv.Itoa(code)
	f.requests.With(endpoint, c).Inc()
	f.latency.With(c).Observe(d.Seconds())
}

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
			var info infoResponse
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

// getJSON GETs path from shard i and decodes the response into out (nil
// discards the body). Non-2xx replies surface as *statusError. On a traced
// request it opens a per-hop child span ("shard<i> <path>") and injects its
// context into the outbound traceparent header.
func (f *Frontend) getJSON(ctx context.Context, i int, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Shards[i]+path, nil)
	if err != nil {
		return err
	}
	var hop *rtrace.Span
	if rtrace.Active(ctx) {
		_, hop = rtrace.StartChild(ctx, "shard"+strconv.Itoa(i)+" "+path)
		hop.SetAttr("shard", strconv.Itoa(i))
		rtrace.Inject(req.Header, hop.Context())
		defer hop.End()
	}
	resp, err := f.client.Do(req)
	if err != nil {
		hop.SetAttr("error", err.Error())
		return err
	}
	defer resp.Body.Close()
	hop.SetAttr("code", strconv.Itoa(resp.StatusCode))
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

// call runs one fan-out leg over shard i's hop: q as a kind request frame
// out, and the reply's body, when its status is 2xx, to decode. A non-2xx
// reply surfaces as *statusError. On a traced request it opens a per-hop
// child span ("shard<i> <endpoint>") whose context rides in the frame, so
// the shard's own span joins the trace.
func (f *Frontend) call(ctx context.Context, i int, kind byte, q hopRequest,
	decode func(h hopReplyHeader, body []byte) error) error {
	var hop *rtrace.Span
	if rtrace.Active(ctx) {
		_, hop = rtrace.StartChild(ctx, "shard"+strconv.Itoa(i)+" "+hopEndpoint(kind))
		hop.SetAttr("shard", strconv.Itoa(i))
		q.trace = hop.Context()
		defer hop.End()
	}
	code, err := f.hops[i].roundTrip(ctx, kind, &q, decode)
	if code != 0 {
		hop.SetAttr("code", strconv.Itoa(code))
	} else if err != nil {
		hop.SetAttr("error", err.Error())
	}
	return err
}

// maxIdleHops is how many idle frame connections the frontend keeps per
// shard (net/http's client kept as many per host before them).
const maxIdleHops = 16

// hopPool is one shard's idle frame connections. Each connection carries
// one request at a time; a leg takes one (or dials and upgrades a new one)
// and gives it back only after a whole, well-formed reply.
type hopPool struct {
	addr, host, path string      // dial address, Host header, upgrade path
	dials            *obs.Metric // als_front_shard_dials_total{shard}

	mu     sync.Mutex
	idle   []*hopConn
	closed bool
}

// hopConn is one upgraded connection and what it reuses from leg to leg.
type hopConn struct {
	c             net.Conn
	br            *bufio.Reader
	in, out, body []byte
	version       string // the last reply's snapshot version
}

func (c *hopConn) close() { c.c.Close() }

// get takes the most recently used idle connection, or dials a new one;
// reused says which.
func (p *hopPool) get(ctx context.Context) (c *hopConn, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err = p.dial(ctx)
	return c, false, err
}

// put gives a connection back after a whole reply, or closes it when the
// pool is full or closed.
func (p *hopPool) put(c *hopConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdleHops {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.close()
}

// close drops the idle connections; later puts close theirs.
func (p *hopPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.close()
	}
}

// dial connects to the shard and upgrades the connection to frames. Any
// answer but 101 with the hop's protocol is a transport failure, like a
// refused dial.
func (p *hopPool) dial(ctx context.Context) (*hopConn, error) {
	p.dials.Inc()
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	deadline, _ := ctx.Deadline()
	nc.SetDeadline(deadline)
	c := &hopConn{c: nc, br: bufio.NewReaderSize(nc, 4<<10)}
	if _, err := io.WriteString(nc, "GET "+p.path+" HTTP/1.1\r\nHost: "+p.host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+hopProtocol+"\r\n\r\n"); err != nil {
		nc.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		nc.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || !headerHas(resp.Header, "Upgrade", hopProtocol) {
		nc.Close()
		return nil, fmt.Errorf("shard at %s did not upgrade to %s: %s", p.addr, hopProtocol, resp.Status)
	}
	return c, nil
}

// roundTrip sends q as a kind frame and reads the reply on a pooled
// connection. code is the reply's status, 0 when no whole reply arrived.
// The connection goes back to the pool only after a whole, well-formed
// reply; after any other outcome — a timeout included, whose reply may
// still be on its way — it is closed, so no later leg can read a stale
// reply. A reused connection that fails before a reply (the shard may have
// closed it while idle) is replaced by a fresh one once, as net/http
// retried a request on a reused connection.
func (p *hopPool) roundTrip(ctx context.Context, kind byte, q *hopRequest,
	decode func(h hopReplyHeader, body []byte) error) (int, error) {
	for {
		c, reused, err := p.get(ctx)
		if err != nil {
			return 0, legError(ctx, err)
		}
		code, err := c.exchange(ctx, kind, q, decode)
		var se *statusError
		switch {
		case err == nil || errors.As(err, &se):
			// A whole reply. The shard closes its end after a 413: the
			// frame it refused is still in the stream.
			if code == http.StatusRequestEntityTooLarge {
				c.close()
			} else {
				p.put(c)
			}
			return code, err
		case code == 0 && reused && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded):
			c.close()
			continue
		}
		c.close()
		return code, legError(ctx, err)
	}
}

// legError reports a leg that ran out of time as its context's error, so
// the retry rule (retryable) sees a spent deadline as one.
func legError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return err
}

// exchange writes one request frame and reads its reply under ctx's
// deadline; see roundTrip for code.
func (c *hopConn) exchange(ctx context.Context, kind byte, q *hopRequest,
	decode func(h hopReplyHeader, body []byte) error) (code int, err error) {
	deadline, _ := ctx.Deadline()
	if err := c.c.SetDeadline(deadline); err != nil {
		return 0, err
	}
	c.body = q.encode(c.body[:0], kind)
	c.out = framing.Append(c.out[:0], kind, c.body)
	if _, err := c.c.Write(c.out); err != nil {
		return 0, err
	}
	rk, p, in, err := framing.Read(c.br, c.in, maxHopReply)
	c.in = in
	if err != nil {
		return 0, err
	}
	if rk != hopReply {
		return 0, fmt.Errorf("shard replied with a kind %d frame", rk)
	}
	h, body, err := parseReplyHeader(p, &c.version)
	if err != nil {
		return 0, err
	}
	if h.status/100 != 2 {
		return h.status, &statusError{code: h.status, msg: string(body)}
	}
	return h.status, decode(h, body)
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
func (f *Frontend) anyInfo(ctx context.Context) *infoResponse {
	var best *infoResponse
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
		var info infoResponse
		err := f.getJSON(sctx, i, "/shard/v1/info", &info)
		cancel()
		if err == nil {
			f.shards[i].info.Store(&info)
			return &info
		}
	}
	return nil
}

// gathered is the scatter-gather outcome the frontend appends to the
// standard /v1/recommend and /v1/foldin answers.
type gathered struct {
	Partial  bool `json:"partial,omitempty"`
	ShardsOK int  `json:"shards_ok"`
	Shards   int  `json:"shards"`
}

// frontRecommendResponse is the frontend's /v1/recommend answer.
type frontRecommendResponse struct {
	RecommendResponse
	gathered
}

func (f *Frontend) handleRecommend(w http.ResponseWriter, r *http.Request) {
	user, n, ok := recommendQuery(w, r, f.cfg.MaxN)
	if !ok {
		return
	}
	q := hopRequest{user: user, n: n}
	results, answered := gather(r.Context(), f, w, func(ctx context.Context, i int, out *RecommendResponse) error {
		return f.call(ctx, i, hopRecommend, q, func(h hopReplyHeader, body []byte) error {
			return decodeScored(h, body, out)
		})
	})
	if answered == 0 {
		return
	}
	_, mspan := rtrace.StartChild(r.Context(), "merge")
	merged, version, seq := mergeItems(results, n)
	mspan.End()
	obs.WriteJSON(w, frontRecommendResponse{
		RecommendResponse{Version: version, Seq: seq, User: user, Items: merged},
		f.outcome(answered, answered < len(f.shards)),
	})
}

// outcome builds a response's scatter-gather outcome, counting a degraded
// one in als_shard_partial_total.
func (f *Frontend) outcome(answered int, partial bool) gathered {
	if partial {
		f.partial.Inc()
	}
	return gathered{Partial: partial, ShardsOK: answered, Shards: len(f.shards)}
}

// frontFoldInResponse is the frontend's /v1/foldin answer.
type frontFoldInResponse struct {
	FoldInResponse
	gathered
}

// handleFoldIn solves a cold-start user across the fleet: every shard
// contributes the partial Gram/RHS terms of its item slice, the frontend
// sums them and solves the k×k system with the solve core.Model.FoldInUser
// runs (core.SolveFoldIn adds λI once), then scatter-gathers the scoring of
// the solved factor. The write path finishes by purging the user's cached
// responses on every shard — not just the ones that answered — so no replica
// can serve a pre-write recommendation from its LRU.
func (f *Frontend) handleFoldIn(w http.ResponseWriter, r *http.Request) {
	var req FoldInRequest
	if !decodeFoldIn(w, r, f.cfg.MaxFoldInItems, f.cfg.MaxN, &req) {
		return
	}
	// The catalog size the ratings are checked against and the training λ
	// both come from the shards' model metadata.
	info := f.anyInfo(r.Context())
	if info == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no shard answered")
		return
	}
	if err := core.CheckFoldIn(req.Items, req.Ratings, info.TotalItems); err != nil {
		obs.HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Phase 1: gather partial normal equations. Each phase runs under its
	// own span so its per-shard hop spans nest beneath it.
	pq := hopRequest{items: req.Items, ratings: req.Ratings}
	pctx, pspan := rtrace.StartChild(r.Context(), "foldin.partials")
	parts, answered := gather(pctx, f, w, func(ctx context.Context, i int, out *partials) error {
		return f.call(ctx, i, hopPartials, pq, func(h hopReplyHeader, body []byte) error {
			return decodePartials(h, body, out)
		})
	})
	pspan.End()
	if answered == 0 {
		return
	}
	degraded := answered < len(f.shards)
	k := -1
	for _, p := range parts {
		if p == nil {
			continue
		}
		if k < 0 {
			k = p.K
		}
		if p.K != k || len(p.Terms) != linalg.PackedLen(k)+k {
			obs.HTTPError(w, http.StatusBadGateway, "shards disagree on model dimensionality")
			return
		}
	}
	// Summed component by component in shard order, from zero.
	terms := make([]float32, linalg.PackedLen(k)+k)
	for _, p := range parts {
		if p != nil {
			for z, v := range p.Terms {
				terms[z] += v
			}
		}
	}
	_, sspan := rtrace.StartChild(r.Context(), "foldin.solve")
	xu, err := core.SolveFoldIn(terms[:linalg.PackedLen(k)], terms[linalg.PackedLen(k):], k,
		foldInLambda(&req, info.Lambda, info.WeightedLambda))
	sspan.End()
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Phase 2: scatter the solved factor for scoring (the user's own rated
	// items excluded, as in the single-process path).
	sq := hopRequest{x: xu, n: req.N, items: req.Items}
	scctx, scspan := rtrace.StartChild(r.Context(), "foldin.score")
	scores, answered := gather(scctx, f, w, func(ctx context.Context, i int, out *RecommendResponse) error {
		return f.call(ctx, i, hopScore, sq, func(h hopReplyHeader, body []byte) error {
			return decodeScored(h, body, out)
		})
	})
	scspan.End()
	if answered == 0 {
		return
	}
	degraded = degraded || answered < len(f.shards)

	// Write-path cache invalidation: broadcast the purge to every
	// configured shard — including any that missed the partials or scoring
	// deadline — so a recovering replica cannot serve the user's pre-write
	// recommendations out of its LRU.
	if req.User != nil {
		uq := hopRequest{user: *req.User}
		puctx, puspan := rtrace.StartChild(r.Context(), "foldin.purge")
		f.scatter(puctx, func(ctx context.Context, i int) error {
			return f.call(ctx, i, hopPurge, uq, func(_ hopReplyHeader, body []byte) error {
				_, err := decodePurge(body)
				return err
			})
		})
		puspan.End()
	}

	_, mspan := rtrace.StartChild(r.Context(), "merge")
	merged, version, seq := mergeItems(scores, req.N)
	mspan.End()
	obs.WriteJSON(w, frontFoldInResponse{
		FoldInResponse{Version: version, Seq: seq, Items: merged},
		f.outcome(answered, degraded),
	})
}

// handleModel aggregates the fleet's /shard/v1/info into the standard
// /v1/model discovery answer (full catalog size, shared user count).
func (f *Frontend) handleModel(w http.ResponseWriter, r *http.Request) {
	infos, answered := gather(r.Context(), f, w, func(ctx context.Context, i int, out *infoResponse) error {
		if err := f.getJSON(ctx, i, "/shard/v1/info", out); err != nil {
			return err
		}
		f.shards[i].info.Store(out)
		return nil
	})
	if answered == 0 {
		return
	}
	var best *infoResponse
	for _, in := range infos {
		if in != nil && (best == nil || in.Seq > best.Seq) {
			best = in
		}
	}
	obs.WriteJSON(w, ModelResponse{
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
func mergeItems(results []*RecommendResponse, n int) ([]RecItem, string, uint64) {
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
	out := make([]RecItem, 0, max(0, min(n, total)))
	for len(out) < cap(out) {
		best := -1
		var head RecItem
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

// gather fans call out to every shard (see scatter) and collects the typed
// replies, nil where a shard did not answer. When none did it has answered
// the request through failAllShards and reports answered == 0.
func gather[T any](ctx context.Context, f *Frontend, w http.ResponseWriter,
	call func(ctx context.Context, i int, out *T) error) (replies []*T, answered int) {
	replies = make([]*T, len(f.shards))
	errs := f.scatter(ctx, func(ctx context.Context, i int) error {
		out := new(T)
		if err := call(ctx, i, out); err != nil {
			return err
		}
		replies[i] = out
		return nil
	})
	for _, err := range errs {
		if err == nil {
			answered++
		}
	}
	if answered == 0 {
		failAllShards(w, errs)
	}
	return replies, answered
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
