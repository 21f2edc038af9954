package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/rtrace"
	"repro/internal/sparse"
)

// Config sizes the server. The zero value gets sensible defaults.
type Config struct {
	// Workers is ignored: a scan runs on its request's goroutine, and
	// Queue bounds how many run at once.
	Workers int
	// Queue caps concurrently admitted requests; arrivals beyond it are
	// shed with 429 instead of queueing unboundedly (default 64).
	Queue int
	// Timeout is the per-request deadline (default 2s).
	Timeout time.Duration
	// CacheSize is the response-cache capacity in entries (default 1024;
	// negative disables caching).
	CacheSize int
	// MaxN caps the per-request recommendation count (default 100).
	MaxN int
	// MaxFoldInItems caps the ratings accepted by one fold-in request
	// (default 10000).
	MaxFoldInItems int
	// Tracer, when set, records request spans: a middleware root (or a
	// child of the inbound traceparent context) per endpoint with children
	// for cache lookup, the top-N scan, the fold-in solve and snapshot
	// swaps. Nil disables tracing with zero per-request cost.
	Tracer *rtrace.Tracer
	// SlowLog, when positive, logs requests at or above this duration with
	// their trace ID, so logs cross-reference /debug/traces.
	SlowLog time.Duration
}

func (c *Config) setDefaults() {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxN <= 0 {
		c.MaxN = 100
	}
	if c.MaxFoldInItems <= 0 {
		c.MaxFoldInItems = 10000
	}
}

// Server serves top-N and fold-in recommendations over HTTP from the
// current Snapshot. Create with New, install a model with Swap (or the
// /admin/swap endpoint) and mount Handler.
type Server struct {
	cfg   Config
	store Store
	cache *Cache
	tel   *Telemetry
	sem   chan struct{}
	mw    middleware
	mux   *http.ServeMux
}

// New builds a server; it serves 503 until the first Swap installs a model.
func New(cfg Config) *Server {
	cfg.setDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheSize),
		tel:   NewTelemetry(),
		sem:   make(chan struct{}, cfg.Queue),
	}
	s.mw = middleware{who: "serve", tracer: cfg.Tracer, slowLog: cfg.SlowLog, observe: s.tel.Observe}
	s.tel.AttachServer(s.store.Current, s.cache)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", metricsHandler(s.tel.Registry()))
	mux.HandleFunc("GET /v1/model", s.instrument("model", s.handleModel))
	mux.HandleFunc("GET /v1/recommend", s.instrument("recommend", s.handleRecommend))
	mux.HandleFunc("POST /v1/foldin", s.instrument("foldin", s.handleFoldIn))
	mux.HandleFunc("POST /admin/swap", s.instrument("swap", swapHandler(
		func(ctx context.Context, m *core.Model, rated *sparse.CSR, version string) *Snapshot {
			return s.swapShard(ctx, m, sparse.NewGaps(rated), version, 0, 0)
		})))
	s.mux = mux
	return s
}

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Telemetry exposes the metric registry (for embedding hosts).
func (s *Server) Telemetry() *Telemetry { return s.tel }

// Current returns the live snapshot, or nil before the first Swap.
func (s *Server) Current() *Snapshot { return s.store.Current() }

// Swap atomically installs a new model and purges the response cache; see
// Store.Swap for version defaulting. The snapshot holds rated coded
// (sparse.Gaps), not rated itself.
func (s *Server) Swap(m *core.Model, rated *sparse.CSR, version string) *Snapshot {
	return s.swapShard(context.Background(), m, sparse.NewGaps(rated), version, 0, 0)
}

// swapShard installs a sharded model view whose Y rows cover the catalog
// slice [offset, offset+Y.Rows) of total items (total == 0 means a full
// model), with rated indexed by that slice's local items. Recommendation
// responses report global item indices; fold-in is refused on sharded
// snapshots because it needs the whole catalog. The swap's stages are
// children of ctx's span (Store.swapShard).
func (s *Server) swapShard(ctx context.Context, m *core.Model, rated *sparse.Gaps, version string, offset, total int) *Snapshot {
	sn := s.store.swapShard(ctx, m, rated, version, offset, total)
	s.cache.Purge()
	s.tel.SwapRecorded(sn)
	return sn
}

// SetPrecision selects the scoring precision installed by subsequent
// swaps (alsserve -precision). The live snapshot is not re-encoded.
func (s *Server) SetPrecision(p quant.Precision) { s.store.SetPrecision(p) }

// ScoreTopN ranks the snapshot's item slice for one scoring vector at the
// snapshot's precision, on the caller's goroutine: the pruned quantized
// scan when the swap built a ranked compressed Y, the screened float32
// scan otherwise. All request paths — recommend, fold-in, shard replica
// scoring — funnel through here, so precision dispatch, the scan-time
// histogram and the row counts live in one place.
func (s *Server) ScoreTopN(ctx context.Context, sn *Snapshot, x []float32, excluded func(int) bool, n int) ([]metrics.Scored, error) {
	_, span := rtrace.StartChild(ctx, "scan")
	span.SetAttr("precision", sn.Precision.String())
	start := time.Now()
	var scored []metrics.Scored
	var rows int // rows that got an exact score; the rest were pruned
	var err error
	if sn.QY != nil {
		scored, rows, err = scanRanked(ctx, x, sn.QY, excluded, n)
	} else {
		scored, rows, err = scanTopN(ctx, x, sn.Model.Y, sn.Screen, excluded, n)
	}
	if span != nil {
		span.SetAttr("rows_scored", strconv.Itoa(rows))
		if sn.QY == nil { // the float32 scan: which bindings of linalg.Dot8Wide (SSE2 under "avx" too) and Screen8 ran
			span.SetAttr("kernel", linalg.KernelName())
			span.SetAttr("screen", screenBinding(sn))
		}
		span.End()
	}
	if err == nil {
		s.tel.ObserveScan(sn.Precision, time.Since(start), rows, sn.Items-rows)
	}
	return scored, err
}

// screenBinding names the screen a float32 scan of sn runs: Screen8's
// binding, or "off" when the snapshot holds no int16 copy.
func screenBinding(sn *Snapshot) string {
	if sn.Screen == nil {
		return "off"
	}
	return linalg.ScreenKernelName()
}

// ResponseCache exposes the LRU response cache for embedding hosts.
func (s *Server) ResponseCache() *Cache { return s.cache }

// Close releases nothing: a Server holds no goroutines of its own. It is
// kept for hosts written when it did.
func (s *Server) Close() {}

// middleware is the request edge both HTTP fronts share: the Server runs it
// behind admission control and the deadline (instrument), the Frontend bare.
type middleware struct {
	who     string // slow-log prefix
	tracer  *rtrace.Tracer
	slowLog time.Duration
	observe func(endpoint string, code int, d time.Duration)
}

// wrap runs h under the endpoint's trace span — when a tracer is configured,
// continuing an inbound traceparent context — captures the status code h
// answers with and hands it to done. With tracing off it adds no allocation
// beyond the status writer.
func (mw *middleware) wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var span *rtrace.Span
		if mw.tracer != nil {
			var ctx context.Context
			ctx, span = mw.tracer.StartRequest(r.Context(), endpoint, rtrace.Extract(r.Header))
			if span != nil {
				r = r.WithContext(ctx)
			}
		}
		sw := obs.NewStatusWriter(w)
		h(sw, r)
		mw.done(endpoint, sw.Code, start, span)
	}
}

// done finishes one request begun at start, whichever encoding carried it:
// it reports endpoint, code and duration to observe, closes the request's
// span and logs a request at or over the slow-log threshold with its trace
// ID.
func (mw *middleware) done(endpoint string, code int, start time.Time, span *rtrace.Span) {
	d := time.Since(start)
	mw.observe(endpoint, code, d)
	if span != nil {
		span.SetAttr("code", strconv.Itoa(code))
		span.End()
	}
	if mw.slowLog > 0 && d >= mw.slowLog {
		log.Printf("%s: slow request endpoint=%s code=%d dur=%s trace=%s",
			mw.who, endpoint, code, d, span.TraceID())
	}
}

// saturated is the answer to a request the admission queue sheds.
const saturated = "server saturated, retry later"

// admit takes a slot in the bounded admission queue for one request of
// endpoint and counts it in flight. When the queue is full it counts the
// shed and the 429 instead and reports false. Every admitted request ends
// with release.
func (s *Server) admit(endpoint string) bool {
	select {
	case s.sem <- struct{}{}:
		s.tel.IncInflight()
		return true
	default:
		s.tel.Shed(endpoint)
		s.tel.Observe(endpoint, http.StatusTooManyRequests, 0)
		return false
	}
}

// release ends a request admit let in.
func (s *Server) release() {
	s.tel.DecInflight()
	<-s.sem
}

// instrument puts a handler behind the server's admission path — bounded
// queue (429 with Retry-After on saturation), in-flight gauge, per-request
// deadline — and then the shared middleware. A replica's hop frames are
// admitted by the same two steps (Replica.answer).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	h = s.mw.wrap(endpoint, h)
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit(endpoint) {
			// One second is long enough for the bounded queue to drain at
			// any realistic service time without parking clients.
			w.Header().Set("Retry-After", "1")
			obs.HTTPError(w, http.StatusTooManyRequests, saturated)
			return
		}
		defer s.release()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// smallBodyLimit bounds bodies of a few scalars or file paths (/admin/swap).
const smallBodyLimit = 64 << 10

// foldInBodyLimit is the body size allowed a fold-in of maxItems ratings:
// an index prints in at most 11 bytes and a rating in at most 24, 48 each
// with separators and indentation, plus 1 KiB for the scalar fields.
func foldInBodyLimit(maxItems int) int64 { return 1<<10 + 48*int64(maxItems) }

// decodeJSON reads a JSON body of at most limit bytes into v, stopping at
// the limit rather than buffering past it. On failure it has answered (413
// when oversized, else 400) and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
	case errors.As(err, &tooLarge):
		obs.HTTPError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", limit))
	default:
		obs.HTTPError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return err == nil
}

// scoreError maps a scan/context failure to the status the request gets.
func scoreError(err error) *statusError {
	if errors.Is(err, context.DeadlineExceeded) {
		return &statusError{code: http.StatusGatewayTimeout, msg: "deadline exceeded while scoring"}
	}
	return &statusError{code: http.StatusServiceUnavailable, msg: err.Error()}
}

// statusError is a request's rejection: the status code and the words both
// encodings carry (the JSON edges' {"error": msg}, a hop reply's message).
// From a shard, 4xx codes mean the request (not the shard) is at fault, so
// they never mark a shard down.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// httpError answers a JSON request with err's status and words.
func httpError(w http.ResponseWriter, err *statusError) { obs.HTTPError(w, err.code, err.msg) }

// errNoModel answers any request that arrives before the first swap.
var errNoModel = &statusError{code: http.StatusServiceUnavailable, msg: "no model loaded"}

// RecItem is one recommended item in a response.
type RecItem struct {
	Item  int     `json:"item"`         // dense index into Y
	ID    int64   `json:"id,omitempty"` // external item ID for compact models
	Score float64 `json:"score"`
}

// recItems converts scan output to response items. offset shifts the
// local Y row index to the global catalog index for sharded snapshots
// (labels stay local: the sliced model carries the matching ItemIDs slice).
func recItems(m *core.Model, scored []metrics.Scored, offset int) []RecItem {
	out := make([]RecItem, len(scored))
	for i, s := range scored {
		out[i] = RecItem{Item: s.Item + offset, Score: s.Score}
		if m.ItemIDs != nil {
			out[i].ID = m.ItemLabel(s.Item)
		}
	}
	return out
}

// RecommendResponse answers /v1/recommend.
type RecommendResponse struct {
	Version string    `json:"version"`
	Seq     uint64    `json:"seq"`
	User    int64     `json:"user"`
	Items   []RecItem `json:"items"`
	Cached  bool      `json:"cached"`
}

// recommendQuery parses /v1/recommend's user and n (default 10, at most maxN)
// for either edge. On failure it has answered 400 and returns ok false.
func recommendQuery(w http.ResponseWriter, r *http.Request, maxN int) (user int64, n int, ok bool) {
	q := r.URL.Query()
	user, err := strconv.ParseInt(q.Get("user"), 10, 64)
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, "user must be an integer")
		return 0, 0, false
	}
	n = 10
	if v := q.Get("n"); v != "" {
		n, err = strconv.Atoi(v)
		if err != nil || n <= 0 || n > maxN {
			obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("n must be in [1,%d]", maxN))
			return 0, 0, false
		}
	}
	return user, n, true
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	sn := s.store.Current()
	if sn == nil {
		httpError(w, errNoModel)
		return
	}
	orig, n, ok := recommendQuery(w, r, s.cfg.MaxN)
	if !ok {
		return
	}
	scored, cached, err := s.recommend(r.Context(), sn, orig, n)
	if err != nil {
		httpError(w, err)
		return
	}
	obs.WriteJSON(w, RecommendResponse{Version: sn.Version, Seq: sn.Seq, User: orig,
		Items: recItems(sn.Model, scored, sn.ItemOffset), Cached: cached})
}

// recommend is /v1/recommend's core for both encodings — the JSON edge and a
// replica's recommend frame: the top n of sn's item slice for the user with
// external ID orig, from the response cache when it holds them (cached),
// else scanned with the user's rated items excluded and cached.
func (s *Server) recommend(ctx context.Context, sn *Snapshot, orig int64, n int) (scored []metrics.Scored, cached bool, _ *statusError) {
	// Compact models address users by external ID, dense models by row.
	u, ok := sn.UserIndex(orig)
	if !ok {
		return nil, false, &statusError{code: http.StatusNotFound, msg: fmt.Sprintf("user %d not in the model", orig)}
	}
	key := cacheKey{version: sn.Version, seq: sn.Seq, user: u, n: n, prec: sn.Precision}
	_, cspan := rtrace.StartChild(ctx, "cache.lookup")
	items, hit := s.cache.Get(key)
	if cspan != nil {
		cspan.SetAttr("hit", strconv.FormatBool(hit))
		cspan.End()
	}
	if hit {
		return items, true, nil
	}
	scored, err := s.ScoreTopN(ctx, sn, sn.Model.X.Row(u), gapsExcluder(sn.Rated, u), n)
	if err != nil {
		return nil, false, scoreError(err)
	}
	s.cache.Put(key, scored)
	return scored, false, nil
}

// FoldInRequest is the /v1/foldin payload: the cold-start user's observed
// ratings in the model's dense item index space.
type FoldInRequest struct {
	Items   []int32   `json:"items"`
	Ratings []float32 `json:"ratings"`
	N       int       `json:"n"`
	// Lambda overrides the fold-in regularization; 0 uses the model's
	// training λ (scaled by |Ω| under the weighted convention), falling
	// back to the server default.
	Lambda float32 `json:"lambda"`
	// User, when set, names the external user these ratings belong to.
	// The server then purges that user's cached recommendations so a
	// fold-in write is never shadowed by a stale cache entry.
	User *int64 `json:"user,omitempty"`
}

// FoldInResponse answers /v1/foldin.
type FoldInResponse struct {
	Version string    `json:"version"`
	Seq     uint64    `json:"seq"`
	Items   []RecItem `json:"items"`
}

// foldInFallbackLambda regularizes a fold-in when neither the request nor
// the model's metadata carries a λ (alstrain's own default).
const foldInFallbackLambda = 0.1

// foldInLambda resolves a fold-in's regularization for either edge: the
// request's override, else the model's training λ (scaled by |Ω| under the
// weighted convention), else foldInFallbackLambda.
func foldInLambda(req *FoldInRequest, trained float32, weighted bool) float32 {
	switch {
	case req.Lambda > 0:
		return req.Lambda
	case trained > 0 && weighted:
		return trained * float32(len(req.Items))
	case trained > 0:
		return trained
	}
	return foldInFallbackLambda
}

// decodeFoldIn reads a /v1/foldin body for either edge and applies the
// request-level rules: at least one and at most maxItems ratings, n
// defaulted to 10 and capped at maxN. The per-rating rules (equal lengths,
// range, duplicates, finiteness) are core.CheckFoldIn's. On failure it has
// answered and returns false.
func decodeFoldIn(w http.ResponseWriter, r *http.Request, maxItems, maxN int, req *FoldInRequest) bool {
	if !decodeJSON(w, r, foldInBodyLimit(maxItems), req) {
		return false
	}
	if req.N <= 0 {
		req.N = 10
	}
	msg := ""
	switch {
	case len(req.Items) == 0:
		msg = "need at least one rating"
	case len(req.Items) > maxItems:
		msg = fmt.Sprintf("at most %d ratings per request", maxItems)
	case req.N > maxN:
		msg = fmt.Sprintf("n must be in [1,%d]", maxN)
	}
	if msg != "" {
		obs.HTTPError(w, http.StatusBadRequest, msg)
	}
	return msg == ""
}

func (s *Server) handleFoldIn(w http.ResponseWriter, r *http.Request) {
	sn := s.store.Current()
	if sn == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	if sn.ItemTotal != 0 {
		// A shard holds only a slice of Y; solving the fold-in user here
		// would drop every out-of-slice rating. The scatter-gather
		// frontend sums per-shard partial Gram/RHS terms instead.
		obs.HTTPError(w, http.StatusNotImplemented,
			"fold-in is not served by a shard replica; send it to the scatter-gather frontend")
		return
	}
	var req FoldInRequest
	if !decodeFoldIn(w, r, s.cfg.MaxFoldInItems, s.cfg.MaxN, &req) {
		return
	}
	meta := sn.Model.Meta
	_, fspan := rtrace.StartChild(r.Context(), "foldin.solve")
	xu, err := sn.foldIn(req.Items, req.Ratings,
		foldInLambda(&req, meta.Lambda, meta.WeightedLambda))
	fspan.End()
	if err != nil {
		obs.HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The folded-in user's own items are their rated set: exclude them.
	// Fold-in solves xu in float32 over the rated items' rows (above); only
	// this final scan reads the quantized matrix.
	scored, err := s.ScoreTopN(r.Context(), sn, xu, localExcluder(req.Items, 0, sn.Items), req.N)
	if err != nil {
		httpError(w, scoreError(err))
		return
	}
	if req.User != nil {
		if u, ok := sn.UserIndex(*req.User); ok {
			s.cache.PurgeUser(u)
		}
	}
	obs.WriteJSON(w, FoldInResponse{Version: sn.Version, Seq: sn.Seq, Items: recItems(sn.Model, scored, 0)})
}

// swapRequest is the /admin/swap payload: file paths on the server host, as
// written by alstrain -out.
type swapRequest struct {
	Model    string `json:"model"`
	Ratings  string `json:"ratings"`
	OneBased *bool  `json:"one_based"` // default true
	Version  string `json:"version"`
}

// swapResponse reports the installed snapshot (for a shard, its slice).
type swapResponse struct {
	Version string `json:"version"`
	Seq     uint64 `json:"seq"`
	Users   int    `json:"users"`
	Items   int    `json:"items"`
	K       int    `json:"k"`
}

// swapHandler is the /admin/swap handler of the server and of a shard
// replica: install is the server's swap, or Replica.install — which slices
// the loaded model to the shard's range first, so an operator can push one
// model path to the whole fleet. It records the swap's stages under ctx.
func swapHandler(install func(context.Context, *core.Model, *sparse.CSR, string) *Snapshot) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req swapRequest
		if !decodeJSON(w, r, smallBodyLimit, &req) {
			return
		}
		if req.Model == "" {
			obs.HTTPError(w, http.StatusBadRequest, "need model path")
			return
		}
		oneBased := true
		if req.OneBased != nil {
			oneBased = *req.OneBased
		}
		m, rated, err := LoadSnapshotFiles(req.Model, req.Ratings, oneBased)
		if err != nil {
			obs.HTTPError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, span := rtrace.StartChild(r.Context(), "swap.install")
		sn := install(ctx, m, rated, req.Version)
		span.End()
		obs.WriteJSON(w, swapResponse{Version: sn.Version, Seq: sn.Seq,
			Users: sn.Model.X.Rows, Items: sn.Items, K: sn.Model.K})
	}
}

// ModelResponse answers /v1/model (load generators use it for discovery).
type ModelResponse struct {
	Version   string `json:"version"`
	Seq       uint64 `json:"seq"`
	Users     int    `json:"users"`
	Items     int    `json:"items"`
	K         int    `json:"k"`
	Compact   bool   `json:"compact"` // users addressed by external IDs
	RatedSet  bool   `json:"rated_set"`
	Precision string `json:"precision"` // scoring precision: f32, f16 or i8
	// Sharded snapshots report the full catalog size in Items and describe
	// their local slice here; ShardItems == 0 means a full model.
	ItemOffset int `json:"item_offset,omitempty"`
	ShardItems int `json:"shard_items,omitempty"`
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	sn := s.store.Current()
	if sn == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	resp := ModelResponse{Version: sn.Version, Seq: sn.Seq,
		Users: sn.Model.X.Rows, Items: sn.Items, K: sn.Model.K,
		Compact: sn.Model.UserIDs != nil, RatedSet: sn.Rated != nil,
		Precision: sn.Precision.String()}
	if sn.ItemTotal != 0 {
		resp.Items = sn.ItemTotal
		resp.ItemOffset = sn.ItemOffset
		resp.ShardItems = sn.Items
	}
	obs.WriteJSON(w, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.store.Current() == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	w.Write([]byte("ok\n"))
}

// metricsHandler serves a registry in the Prometheus text format.
func metricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	}
}

// probeHandler answers a health endpoint: "ok", or 503 with check's error.
func probeHandler(check func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if err := check(); err != nil {
			obs.HTTPError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		w.Write([]byte("ok\n"))
	}
}
