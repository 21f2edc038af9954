package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// scoreMaxN bounds a /shard/v1/score heap independently of the serving
// config (the frontend enforces its own MaxN; this is the shard's backstop
// against an unbounded internal request).
const scoreMaxN = 10000

// ReplicaConfig describes one shard replica's place in the fleet.
type ReplicaConfig struct {
	// Index / Count name the shard: the replica serves item rows
	// [Index·total/Count, (Index+1)·total/Count) of the catalog.
	Index, Count int
	// MaxStaleness bounds /readyz freshness when the replica follows a
	// checkpoint watcher (0 disables the age check; see Readiness).
	MaxStaleness time.Duration
	// Clock overrides time for readiness (tests); nil is real time.
	Clock checkpoint.Clock
}

// Replica wraps a Server into one shard of the item catalog. The
// ordinary endpoints keep working — /v1/recommend answers partial top-N
// over the local slice with global item indices — and four internal
// endpoints give the scatter-gather frontend what it needs:
//
//	GET  /shard/v1/info      shard identity, slice bounds, model meta
//	POST /shard/v1/partials  partial Gram/RHS terms for a fold-in solve
//	POST /shard/v1/score     top-N of the local slice for a given factor
//	POST /shard/v1/purge     drop a user's cached responses (fold-in write)
//
// plus a public GET /readyz, so frontends health-check replicas without
// needing the debug listener.
type Replica struct {
	srv *Server
	cfg ReplicaConfig
	mux *http.ServeMux
}

// NewReplica wraps srv as shard Index of Count.
func NewReplica(srv *Server, cfg ReplicaConfig) (*Replica, error) {
	if cfg.Count < 1 || cfg.Index < 0 || cfg.Index >= cfg.Count {
		return nil, fmt.Errorf("serve: shard replica %d/%d is not 0 <= i < N", cfg.Index, cfg.Count)
	}
	r := &Replica{srv: srv, cfg: cfg}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("GET /readyz", probeHandler(Readiness(srv, cfg.MaxStaleness, cfg.Clock)))
	mux.HandleFunc("GET /shard/v1/info", srv.instrument("shardinfo", r.handleInfo))
	mux.HandleFunc("POST /shard/v1/partials", srv.instrument("partials", r.handlePartials))
	mux.HandleFunc("POST /shard/v1/score", srv.instrument("score", r.handleScore))
	mux.HandleFunc("POST /shard/v1/purge", srv.instrument("purge", r.handlePurge))
	// Overrides the wrapped server's: the same handler, installing the slice.
	mux.HandleFunc("POST /admin/swap", srv.instrument("swap", swapHandler(r.Swap)))
	r.mux = mux
	return r, nil
}

// Handler returns the replica's routing (shard endpoints layered over the
// wrapped server's).
func (r *Replica) Handler() http.Handler { return r.mux }

// Swap slices a full model down to this shard's range and installs it.
func (r *Replica) Swap(m *core.Model, rated *sparse.CSR, version string) *Snapshot {
	view, off, total := r.Transform(m)
	return r.srv.swapShard(view, rated, version, off, total)
}

// Transform is the WatcherConfig.Transform hook: it slices each
// checkpoint the watcher loads down to this shard's range, making the
// checkpoint directory the fleet's shard-sync mechanism.
func (r *Replica) Transform(m *core.Model) (*core.Model, int, int) {
	return sliceModel(m, r.cfg.Index, r.cfg.Count)
}

// infoResponse answers /shard/v1/info.
type infoResponse struct {
	Shard          int     `json:"shard"`
	Of             int     `json:"of"`
	ItemOffset     int     `json:"item_offset"`
	ShardItems     int     `json:"shard_items"`
	TotalItems     int     `json:"total_items"`
	Users          int     `json:"users"`
	K              int     `json:"k"`
	Lambda         float32 `json:"lambda"`
	WeightedLambda bool    `json:"weighted_lambda"`
	Compact        bool    `json:"compact"`
	Precision      string  `json:"precision"` // scoring precision of this shard's snapshot
	Version        string  `json:"version"`
	Seq            uint64  `json:"seq"`
}

func (r *Replica) handleInfo(w http.ResponseWriter, _ *http.Request) {
	sn := r.srv.Current()
	if sn == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	total, off := sn.ItemTotal, sn.ItemOffset
	if total == 0 {
		total = sn.Model.Y.Rows
	}
	obs.WriteJSON(w, infoResponse{
		Shard: r.cfg.Index, Of: r.cfg.Count,
		ItemOffset: off, ShardItems: sn.Model.Y.Rows, TotalItems: total,
		Users: sn.Model.X.Rows, K: sn.Model.K,
		Lambda: sn.Model.Meta.Lambda, WeightedLambda: sn.Model.Meta.WeightedLambda,
		Compact:   sn.Model.UserIDs != nil,
		Precision: sn.Precision.String(),
		Version:   sn.Version, Seq: sn.Seq,
	})
}

// partialsRequest asks for this shard's contribution to a fold-in solve:
// the cold-start user's ratings in global item indices. Out-of-slice items
// are skipped — every shard sees the full request and contributes exactly
// its slice, so the frontend's sum covers each rating once.
type partialsRequest struct {
	Items   []int32   `json:"items"`
	Ratings []float32 `json:"ratings"`
}

// partialsResponse carries the shard's partial normal equations: the packed
// upper-triangular Gram term Σ y_i·y_iᵀ and right-hand side Σ r_i·y_i over
// the shard-local rated items, without the λI the frontend adds once. Both
// travel as their float32 values' little-endian bytes — one base64 string
// each in the JSON — which the frontend reads back bit for bit, instead of
// PackedLen(k)+k decimal numbers it would parse.
type partialsResponse struct {
	K       int    `json:"k"`
	Gram    []byte `json:"gram_le"` // PackedLen(K) float32
	RHS     []byte `json:"rhs_le"`  // K float32
	Local   int    `json:"local"`   // ratings that fell in this slice
	Version string `json:"version"`
	Seq     uint64 `json:"seq"`
}

// appendLE appends vals' little-endian float32 bytes to buf.
func appendLE(buf []byte, vals []float32) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// addLE adds the little-endian float32 values in src to dst, element for
// element; src holds at least 4·len(dst) bytes.
func addLE(dst []float32, src []byte) {
	for z := range dst {
		dst[z] += math.Float32frombits(binary.LittleEndian.Uint32(src[4*z:]))
	}
}

// catalogBodyLimit bounds the bodies of the frontend's fold-in hops. The
// frontend has already applied its own rating cap, which this replica does
// not know; what it does know is that a valid request names each catalog
// item at most once, in a partials request's ratings or a score request's
// exclusions, next to at most K factor components (32 bytes each).
func catalogBodyLimit(sn *Snapshot) int64 {
	total := sn.ItemTotal
	if total == 0 {
		total = sn.Model.Y.Rows
	}
	return foldInBodyLimit(total) + 32*int64(sn.Model.K)
}

func (r *Replica) handlePartials(w http.ResponseWriter, req *http.Request) {
	sn := r.srv.Current()
	if sn == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	var pr partialsRequest
	if !decodeJSON(w, req, catalogBodyLimit(sn), &pr) {
		return
	}
	if len(pr.Items) != len(pr.Ratings) {
		obs.HTTPError(w, http.StatusBadRequest, "items and ratings lengths differ")
		return
	}
	k := sn.Model.K
	off, rows := sn.ItemOffset, sn.Model.Y.Rows
	var cols []int32
	var vals []float32
	for z, g := range pr.Items {
		if int(g) >= off && int(g) < off+rows {
			cols = append(cols, g-int32(off))
			vals = append(vals, pr.Ratings[z])
		}
	}
	packed := make([]float32, linalg.PackedLen(k))
	rhs := make([]float32, k)
	// GramRHSFused zeroes both outputs, so an empty local set still
	// returns valid all-zero terms.
	linalg.GramRHSFused(sn.Model.Y.Data, k, cols, vals, packed, rhs)
	buf := appendLE(appendLE(make([]byte, 0, 4*(len(packed)+k)), packed), rhs)
	obs.WriteJSON(w, partialsResponse{K: k, Gram: buf[:4*len(packed)], RHS: buf[4*len(packed):],
		Local: len(cols), Version: sn.Version, Seq: sn.Seq})
}

// scoreRequest asks for the shard's top-N against a caller-provided user
// factor (the frontend's fold-in solution), excluding the given global
// item indices.
type scoreRequest struct {
	X       []float32 `json:"x"`
	N       int       `json:"n"`
	Exclude []int32   `json:"exclude,omitempty"`
}

// scoreResponse carries the shard-local top-N in global item indices.
type scoreResponse struct {
	Version string    `json:"version"`
	Seq     uint64    `json:"seq"`
	Items   []RecItem `json:"items"`
}

func (r *Replica) handleScore(w http.ResponseWriter, req *http.Request) {
	sn := r.srv.Current()
	if sn == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	var sr scoreRequest
	if !decodeJSON(w, req, catalogBodyLimit(sn), &sr) {
		return
	}
	if len(sr.X) != sn.Model.K {
		obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("x has %d components, model k=%d", len(sr.X), sn.Model.K))
		return
	}
	if sr.N <= 0 || sr.N > scoreMaxN {
		obs.HTTPError(w, http.StatusBadRequest, fmt.Sprintf("n must be in [1,%d]", scoreMaxN))
		return
	}
	off := sn.ItemOffset
	excluded := localExcluder(sr.Exclude, off, sn.Model.Y.Rows)
	// ScoreTopN dispatches to the quantized scan when the snapshot carries
	// a compressed Y, so a scatter-gather fleet serves the same precision
	// as a single-process server at the same -precision flag.
	scored, err := r.srv.ScoreTopN(req.Context(), sn, sr.X, excluded, sr.N)
	if err != nil {
		scoreError(w, err)
		return
	}
	obs.WriteJSON(w, scoreResponse{Version: sn.Version, Seq: sn.Seq, Items: recItems(sn.Model, scored, off)})
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

// purgeRequest names the user whose cached responses must be dropped.
type purgeRequest struct {
	User int64 `json:"user"`
}

// purgeResponse reports how many cache entries were removed.
type purgeResponse struct {
	Purged int `json:"purged"`
}

func (r *Replica) handlePurge(w http.ResponseWriter, req *http.Request) {
	sn := r.srv.Current()
	if sn == nil {
		obs.HTTPError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	var pr purgeRequest
	if !decodeJSON(w, req, smallBodyLimit, &pr) {
		return
	}
	purged := 0
	if u, ok := sn.UserIndex(pr.User); ok {
		purged = r.srv.ResponseCache().PurgeUser(u)
	}
	obs.WriteJSON(w, purgeResponse{Purged: purged})
}
