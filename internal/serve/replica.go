package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// scoreMaxN bounds a score frame's heap independently of the serving
// config (the frontend enforces its own MaxN; this is the shard's backstop
// against an unbounded internal request).
const scoreMaxN = 10000

// ReplicaConfig describes one shard replica's place in the fleet.
type ReplicaConfig struct {
	// Index / Count name the shard: the replica serves item rows
	// [Index·total/Count, (Index+1)·total/Count) of the catalog.
	Index, Count int
	// MaxStaleness bounds the freshness an info frame, the frontend's probe,
	// requires when the replica follows a checkpoint watcher (0 disables the
	// age check; see Readiness).
	MaxStaleness time.Duration
	// Clock overrides time for readiness (tests); nil is real time.
	Clock checkpoint.Clock
}

// Replica wraps a Server into one shard of the item catalog. The
// ordinary endpoints keep working — /v1/recommend answers partial top-N
// over the local slice with global item indices — and one internal
// endpoint gives the scatter-gather frontend everything it asks of a
// shard: GET /shard/v1/frames upgrades a connection to the hop's frames
// (hop.go), which carry recommend, score (top-N for a given factor),
// partials (Gram/RHS terms for a fold-in solve), purge (a fold-in's cache
// write) and info (the snapshot's shape, answered 503 while Readiness
// fails: the frontend's probe). A host closes the replica (Close) before
// the Server it wraps.
type Replica struct {
	srv   *Server
	cfg   ReplicaConfig
	mux   *http.ServeMux
	ready func() error // Readiness(srv, cfg.MaxStaleness, cfg.Clock)

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // upgraded connections
	closed bool
	loops  sync.WaitGroup // one per upgraded connection
}

// NewReplica wraps srv as shard Index of Count.
func NewReplica(srv *Server, cfg ReplicaConfig) (*Replica, error) {
	if cfg.Count < 1 || cfg.Index < 0 || cfg.Index >= cfg.Count {
		return nil, fmt.Errorf("serve: shard replica %d/%d is not 0 <= i < N", cfg.Index, cfg.Count)
	}
	r := &Replica{srv: srv, cfg: cfg, conns: map[net.Conn]struct{}{},
		ready: Readiness(srv, cfg.MaxStaleness, cfg.Clock)}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	// Bare: the connection outlives this handler, and each frame on it is
	// admitted on its own (answer).
	mux.HandleFunc("GET "+hopPath, r.handleFrames)
	// Overrides the wrapped server's: the same handler, installing the slice.
	mux.HandleFunc("POST /admin/swap", srv.instrument("swap", swapHandler(r.install)))
	r.mux = mux
	return r, nil
}

// Handler returns the replica's routing (shard endpoints layered over the
// wrapped server's).
func (r *Replica) Handler() http.Handler { return r.mux }

// Swap slices a full model, and the rated set indexed by its items, down
// to this shard's range and installs them.
func (r *Replica) Swap(m *core.Model, rated *sparse.CSR, version string) *Snapshot {
	return r.install(context.Background(), m, rated, version)
}

// install is Swap with the swap's stages recorded under ctx's span.
func (r *Replica) install(ctx context.Context, m *core.Model, rated *sparse.CSR, version string) *Snapshot {
	view, off, total := r.Transform(m)
	if rated != nil {
		rated = rated.Pattern().ColRange(off, off+view.Y.Rows)
	}
	return r.srv.swapShard(ctx, view, rated, version, off, total)
}

// Transform is the WatcherConfig.Transform hook: it slices each
// checkpoint the watcher loads down to this shard's range, making the
// checkpoint directory the fleet's shard-sync mechanism.
func (r *Replica) Transform(m *core.Model) (*core.Model, int, int) {
	return sliceModel(m, r.cfg.Index, r.cfg.Count)
}

// Close ends the replica's frame connections and waits for the requests
// they are answering; later upgrades are refused. http.Server's Close and
// Shutdown do not reach a connection after its upgrade, so a host calls
// this after its listener stops.
func (r *Replica) Close() {
	r.mu.Lock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.loops.Wait()
}

// upgradeReply accepts a frame upgrade.
const upgradeReply = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + hopProtocol + "\r\n\r\n"

// handleFrames answers GET hopPath: it takes the connection over from
// net/http and leaves it to a frame loop of its own.
func (r *Replica) handleFrames(w http.ResponseWriter, req *http.Request) {
	c, br, ok := upgradeHop(w, req)
	if !ok {
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.Close()
		return
	}
	r.conns[c] = struct{}{}
	r.loops.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.loops.Done()
		serveHop(c, br, r.frameLimit, r.answer)
		r.mu.Lock()
		delete(r.conns, c)
		r.mu.Unlock()
		c.Close()
	}()
}

// upgradeHop switches a GET hopPath request's connection to the hop's
// frames: it hijacks the connection from net/http and answers 101. A
// request that does not ask for the upgrade is answered 426, and ok is
// false.
func upgradeHop(w http.ResponseWriter, req *http.Request) (c net.Conn, br *bufio.Reader, ok bool) {
	if !headerHas(req.Header, "Connection", "upgrade") || !headerHas(req.Header, "Upgrade", hopProtocol) {
		w.Header().Set("Upgrade", hopProtocol)
		obs.HTTPError(w, http.StatusUpgradeRequired, hopPath+" speaks "+hopProtocol+" after a connection upgrade")
		return nil, nil, false
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		obs.HTTPError(w, http.StatusInternalServerError, "connection cannot be upgraded")
		return nil, nil, false
	}
	c, rw, err := hj.Hijack()
	if err != nil {
		return nil, nil, false
	}
	if _, err := io.WriteString(c, upgradeReply); err != nil {
		c.Close()
		return nil, nil, false
	}
	return c, rw.Reader, true
}

// headerHas reports whether one of h's comma-separated key values is token,
// in any case.
func headerHas(h http.Header, key, token string) bool {
	for _, v := range h.Values(key) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// hopScratch is what one frame connection reuses from request to request.
type hopScratch struct {
	in, out, reply []byte
	req            hopRequest
	cols           []int32   // partials: the rated items in this slice
	vals           []float32 // and their ratings
	terms          []float32 // and the Gram and RHS terms they make
	fold           foldScratch
}

// hopAnswer builds the reply payload to one request frame, in the scratch
// it is handed. It also answers a frame whose payload is over the limit
// (err is framing.ErrTooLarge; p is nil). Replica.answer is the one the
// replica runs.
type hopAnswer func(st *hopScratch, kind byte, p []byte, err error) []byte

// serveHop answers the request frames that arrive on br, one reply frame on
// c each, until either fails. After an oversized frame's 413 the stream is
// out of step, so the loop ends there, once the reply has had time to
// reach the peer.
func serveHop(c net.Conn, br *bufio.Reader, limit func() int, answer hopAnswer) {
	var st hopScratch
	for {
		kind, p, in, err := framing.Read(br, st.in, limit())
		st.in = in
		oversized := errors.Is(err, framing.ErrTooLarge)
		if err != nil && !oversized {
			return
		}
		st.reply = answer(&st, kind, p, err)
		st.out = framing.Append(st.out[:0], hopReply, st.reply)
		if _, err := c.Write(st.out); err != nil {
			return
		}
		if oversized {
			lingerClose(c, br)
			return
		}
	}
}

// lingerClose half-closes c and reads what the peer still sends for a
// moment before the caller closes it: closing with unread bytes would reset
// the connection, and a reset can discard the reply the peer has not read
// yet (net/http's server does the same after a refused body).
func lingerClose(c net.Conn, br *bufio.Reader) {
	if tc, ok := c.(interface{ CloseWrite() error }); ok {
		tc.CloseWrite()
	}
	c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	io.Copy(io.Discard, io.LimitReader(br, 1<<20))
}

// catalogBodyLimit bounds a request frame's payload. The frontend has
// already applied its own rating cap, which this replica does not know;
// what it does know is that a valid request names each catalog item at most
// once — a partials frame's rated items at 8 bytes each, or a score frame's
// exclusions at 4 — next to at most K factor components of 4 bytes, and 64
// bytes of trace prefix and counts.
func catalogBodyLimit(sn *Snapshot) int64 {
	total := sn.ItemTotal
	if total == 0 {
		total = sn.Items
	}
	return 64 + 8*int64(total) + 4*int64(sn.Model.K)
}

// frameLimit is catalogBodyLimit for the live snapshot, or smallBodyLimit
// before the first swap.
func (r *Replica) frameLimit() int {
	if sn := r.srv.Current(); sn != nil {
		return int(catalogBodyLimit(sn))
	}
	return smallBodyLimit
}

// answer is one request frame's way through the replica: the Server's
// admission (queue slot or 429, in-flight gauge, Timeout deadline), the
// request middleware's span, metrics and slow log under the endpoint's
// usual label, and then the kind's core.
func (r *Replica) answer(st *hopScratch, kind byte, p []byte, readErr error) []byte {
	s := r.srv
	endpoint := hopEndpoint(kind)
	switch {
	case readErr != nil:
		if endpoint != "" {
			s.tel.Observe(endpoint, http.StatusRequestEntityTooLarge, 0)
		}
		return appendError(st.reply[:0], nil, &statusError{code: http.StatusRequestEntityTooLarge, msg: readErr.Error()})
	case endpoint == "":
		return appendError(st.reply[:0], nil, &statusError{code: http.StatusBadRequest, msg: fmt.Sprintf("unknown frame kind %d", kind)})
	}
	if !s.admit(endpoint) {
		return appendError(st.reply[:0], nil, &statusError{code: http.StatusTooManyRequests, msg: saturated})
	}
	defer s.release()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()
	start := time.Now()
	derr := st.req.decode(kind, p)
	ctx, span := s.mw.tracer.StartRequest(ctx, endpoint, st.req.trace)
	var notReady error
	if kind == hopInfo {
		notReady = r.ready()
	}
	sn := s.Current()
	var reply []byte
	var fail *statusError
	switch {
	case derr != nil:
		fail = &statusError{code: http.StatusBadRequest, msg: derr.Error()}
	case notReady != nil:
		fail = &statusError{code: http.StatusServiceUnavailable, msg: notReady.Error()}
	case sn == nil:
		fail = errNoModel
	default:
		reply, fail = r.serveKind(ctx, st, kind, sn)
	}
	code := http.StatusOK
	if fail != nil {
		code = fail.code
		reply = appendError(st.reply[:0], sn, fail)
	}
	s.mw.done(endpoint, code, start, span)
	return reply
}

// serveKind runs a decoded request's core against sn and encodes its 2xx
// reply in st.reply.
func (r *Replica) serveKind(ctx context.Context, st *hopScratch, kind byte, sn *Snapshot) ([]byte, *statusError) {
	q := &st.req
	b := appendReplyHeader(st.reply[:0], http.StatusOK, sn)
	switch kind {
	case hopRecommend:
		if maxN := r.srv.cfg.MaxN; q.n <= 0 || q.n > maxN {
			return nil, &statusError{code: http.StatusBadRequest, msg: fmt.Sprintf("n must be in [1,%d]", maxN)}
		}
		scored, _, err := r.srv.recommend(ctx, sn, q.user, q.n)
		if err != nil {
			return nil, err
		}
		return appendScored(b, sn, scored), nil
	case hopScore:
		scored, err := r.score(ctx, sn, q.x, q.n, q.items)
		if err != nil {
			return nil, err
		}
		return appendScored(b, sn, scored), nil
	case hopPartials:
		local := st.partials(sn, q.items, q.ratings)
		return appendPartialsReply(b, sn.Model.K, local, st.terms), nil
	case hopInfo:
		return appendInfo(b, snapshotInfo(sn)), nil
	default: // hopPurge
		purged := 0
		if u, ok := sn.UserIndex(q.user); ok {
			purged = r.srv.ResponseCache().PurgeUser(u)
		}
		return binary.LittleEndian.AppendUint32(b, uint32(purged)), nil
	}
}

// partials computes this shard's contribution to a fold-in solve into
// st.terms: the packed Gram terms and then the RHS over the ratings of
// items in sn's slice, and how many there were. Out-of-slice items are
// skipped — every shard sees the full request and contributes exactly its
// slice, so the frontend's sum covers each rating once.
func (st *hopScratch) partials(sn *Snapshot, items []int32, ratings []float32) (local int) {
	k := sn.Model.K
	off, rows := sn.ItemOffset, sn.Items
	st.cols, st.vals = st.cols[:0], st.vals[:0]
	for z, g := range items {
		if int(g) >= off && int(g) < off+rows {
			st.cols = append(st.cols, g-int32(off))
			st.vals = append(st.vals, ratings[z])
		}
	}
	pl := linalg.PackedLen(k)
	st.terms = slices.Grow(st.terms[:0], pl+k)[:pl+k]
	// GramRHSFused zeroes both outputs, so an empty local set still
	// returns valid all-zero terms.
	st.fold.gramRHS(sn, st.cols, st.vals, st.terms[:pl], st.terms[pl:])
	return len(st.cols)
}

// score ranks sn's slice for a caller's factor x — the frontend's fold-in
// solution — excluding the given global item indices.
func (r *Replica) score(ctx context.Context, sn *Snapshot, x []float32, n int, exclude []int32) ([]metrics.Scored, *statusError) {
	if len(x) != sn.Model.K {
		return nil, &statusError{code: http.StatusBadRequest, msg: fmt.Sprintf("x has %d components, model k=%d", len(x), sn.Model.K)}
	}
	if n <= 0 || n > scoreMaxN {
		return nil, &statusError{code: http.StatusBadRequest, msg: fmt.Sprintf("n must be in [1,%d]", scoreMaxN)}
	}
	// ScoreTopN dispatches to the quantized scan when the snapshot carries
	// a compressed Y, so a scatter-gather fleet serves the same precision
	// as a single-process server at the same -precision flag.
	scored, err := r.srv.ScoreTopN(ctx, sn, x, localExcluder(exclude, sn.ItemOffset, sn.Items), n)
	if err != nil {
		return nil, scoreError(err)
	}
	return scored, nil
}

// localExcluder turns a fold-in request's global exclude list into the
// scan's predicate over this shard's local rows [0, rows): ids outside
// [off, off+rows) belong to other shards and are dropped, and since the
// wire promises neither order nor uniqueness, a copy is sorted and
// de-duplicated for sortedExcluder. Nil when nothing local is
// excluded.
func localExcluder(exclude []int32, off, rows int) func(int) bool {
	local := make([]int32, 0, len(exclude))
	for _, g := range exclude {
		if int(g) >= off && int(g) < off+rows {
			local = append(local, g-int32(off))
		}
	}
	slices.Sort(local)
	return sortedExcluder(slices.Compact(local))
}
