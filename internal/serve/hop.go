package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/lebin"
	"repro/internal/metrics"
	"repro/internal/rtrace"
)

// The shard hop: what the frontend and a replica say to each other, as
// internal/framing frames on a connection the frontend upgraded from
// GET hopPath. A connection carries one request at a time: a request frame
// out, one hopReply frame back.
//
// Every request payload starts with a trace byte — 0, or 1 and then
// rtrace.SpanContext.AppendBinary's 17 bytes — so a traced request's shard
// span joins the frontend's trace. Then, all little-endian:
//
//	hopRecommend  i64 user, u32 n
//	hopScore      u32 n, u32 k, k×f32 x, u32 m, m×i32 excluded global items
//	hopPartials   u32 m, m×i32 rated global items, m×f32 ratings
//	hopPurge      i64 user
//	hopInfo       nothing more
//
// A reply payload starts with u16 status, u64 snapshot seq, u32 length and
// the snapshot version's bytes. Then, for a 2xx status:
//
//	recommend, score  u32 m, m×(i32 global item, i64 item ID, f64 score)
//	partials          u32 k, u32 local ratings, PackedLen(k)+k f32: the
//	                  packed Gram terms, then the RHS
//	purge             u32 cache entries dropped
//	info              u32 users, u32 catalog items, u32 k, f32 training λ,
//	                  u8 flags (infoWeightedLambda, infoCompact)
//
// and for any other status the rest is the error message, the words the
// JSON edges put in {"error": msg}.
const (
	hopPath     = "/shard/v1/frames"
	hopProtocol = "als-frames/1"

	hopRecommend byte = 16
	hopScore     byte = 17
	hopPartials  byte = 18
	hopPurge     byte = 19
	hopInfo      byte = 20
	hopReply     byte = 32
)

// hopEndpoint names a request kind the way the HTTP edge names its
// endpoints: the label of its metrics and the name of its spans. "" for a
// kind that is not a request.
func hopEndpoint(kind byte) string {
	switch kind {
	case hopRecommend:
		return "recommend"
	case hopScore:
		return "score"
	case hopPartials:
		return "partials"
	case hopPurge:
		return "purge"
	case hopInfo:
		return "info"
	}
	return ""
}

// maxHopReply bounds a reply frame the frontend reads. framing.Read grows
// its buffer only as bytes arrive, so the bound is against a runaway
// stream, not a reservation.
const maxHopReply = 64 << 20

// hopRequest is one decoded request frame. A replica connection keeps one
// and decodes every request into it, reusing its slices.
type hopRequest struct {
	trace   rtrace.SpanContext
	user    int64     // recommend, purge
	n       int       // recommend, score
	x       []float32 // score
	items   []int32   // score: excluded; partials: rated
	ratings []float32 // partials
}

// appendTrace appends a request's trace prefix.
func appendTrace(b []byte, sc rtrace.SpanContext) []byte {
	if !sc.Valid() {
		return append(b, 0)
	}
	return sc.AppendBinary(append(b, 1))
}

func appendF32s(b []byte, v []float32) []byte {
	for _, f := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
	}
	return b
}

func appendI32s(b []byte, v []int32) []byte {
	for _, i := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
	}
	return b
}

// encode appends q as a kind request payload, trace prefix first.
func (q *hopRequest) encode(b []byte, kind byte) []byte {
	b = appendTrace(b, q.trace)
	switch kind {
	case hopRecommend:
		b = binary.LittleEndian.AppendUint64(b, uint64(q.user))
		return binary.LittleEndian.AppendUint32(b, uint32(q.n))
	case hopScore:
		b = binary.LittleEndian.AppendUint32(b, uint32(q.n))
		b = appendF32s(binary.LittleEndian.AppendUint32(b, uint32(len(q.x))), q.x)
		return appendI32s(binary.LittleEndian.AppendUint32(b, uint32(len(q.items))), q.items)
	case hopPartials:
		b = appendI32s(binary.LittleEndian.AppendUint32(b, uint32(len(q.items))), q.items)
		return appendF32s(b, q.ratings)
	case hopPurge:
		return binary.LittleEndian.AppendUint64(b, uint64(q.user))
	case hopInfo:
		return b
	}
	panic(fmt.Sprintf("serve: hop kind %d is not a request", kind))
}

// decode reads a kind request payload into q. Every array's length is held
// to the bytes left in the payload before it is allocated, and a payload
// with bytes left over is as malformed as a short one.
func (q *hopRequest) decode(kind byte, p []byte) error {
	r := lebin.Payload(p)
	q.trace = rtrace.SpanContext{}
	switch r.U8() {
	case 0:
	case 1:
		q.trace, _ = rtrace.ContextFromBinary(r.Take(rtrace.BinaryContextLen))
	default:
		r.Fail(errors.New("bad trace prefix"))
	}
	switch kind {
	case hopRecommend:
		q.user, q.n = int64(r.U64()), int(r.U32())
	case hopScore:
		q.n = int(r.U32())
		q.x = resize(q.x, r.Count(uint64(r.U32()), 4))
		r.F32s(q.x)
		q.items = resize(q.items, r.Count(uint64(r.U32()), 4))
		r.I32s(q.items)
	case hopPartials:
		m := r.Count(uint64(r.U32()), 8)
		q.items, q.ratings = resize(q.items, m), resize(q.ratings, m)
		r.I32s(q.items)
		r.F32s(q.ratings)
	case hopPurge:
		q.user = int64(r.U64())
	case hopInfo:
	default:
		return fmt.Errorf("unknown frame kind %d", kind)
	}
	return badFrame(&r)
}

// resize returns s's storage holding n elements.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// hopReplyHeader is what every reply carries first.
type hopReplyHeader struct {
	status  int
	seq     uint64
	version string
}

// appendReplyHeader starts a reply payload.
func appendReplyHeader(b []byte, status int, sn *Snapshot) []byte {
	var seq uint64
	var version string
	if sn != nil {
		seq, version = sn.Seq, sn.Version
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(status))
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(version)))
	return append(b, version...)
}

// appendError appends a rejection reply payload.
func appendError(b []byte, sn *Snapshot, err *statusError) []byte {
	return append(appendReplyHeader(b, err.code, sn), err.msg...)
}

// appendScored appends a recommend or score reply's items: scored holds
// rows of sn's slice, which the reply names by global index and item ID.
func appendScored(b []byte, sn *Snapshot, scored []metrics.Scored) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(scored)))
	m := sn.Model
	for _, s := range scored {
		var id int64
		if m.ItemIDs != nil {
			id = m.ItemLabel(s.Item)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Item+sn.ItemOffset))
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Score))
	}
	return b
}

// appendPartialsReply appends a partials reply's body: terms are the
// PackedLen(k) Gram terms and then the k RHS terms.
func appendPartialsReply(b []byte, k, local int, terms []float32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(k))
	b = binary.LittleEndian.AppendUint32(b, uint32(local))
	return appendF32s(b, terms)
}

// parseReplyHeader splits a reply payload into its header and the rest. A
// version equal to *last is returned as *last, so a connection that keeps
// seeing one snapshot allocates its version string once.
func parseReplyHeader(p []byte, last *string) (hopReplyHeader, []byte, error) {
	r := lebin.Payload(p)
	h := hopReplyHeader{status: int(r.U16()), seq: r.U64()}
	v := r.Take(r.Count(uint64(r.U32()), 1))
	if r.Err() != nil {
		return h, nil, badFrame(&r)
	}
	if string(v) != *last {
		*last = string(v)
	}
	h.version = *last
	return h, r.Rest(), nil
}

// decodeScored reads a recommend or score reply's items into out.
func decodeScored(h hopReplyHeader, p []byte, out *RecommendResponse) error {
	r := lebin.Payload(p)
	m := r.Count(uint64(r.U32()), 20)
	if r.Err() != nil {
		return badFrame(&r)
	}
	items := make([]RecItem, m)
	for i := range items {
		items[i] = RecItem{Item: int(int32(r.U32())), ID: int64(r.U64()), Score: math.Float64frombits(r.U64())}
	}
	*out = RecommendResponse{Version: h.version, Seq: h.seq, Items: items}
	return badFrame(&r)
}

// partials is one shard's contribution to a fold-in solve: the packed
// upper-triangular Gram term Σ y_i·y_iᵀ and right-hand side Σ r_i·y_i over
// the shard-local rated items, without the λI the frontend adds once.
type partials struct {
	K, Local int
	Terms    []float32 // PackedLen(K) Gram terms, then K RHS terms
	Version  string
	Seq      uint64
}

// decodePartials reads a partials reply. It checks only that the terms are
// whole float32s: how many a k needs is the frontend's check, across
// shards (a reply with the wrong count is a shard that disagrees).
func decodePartials(h hopReplyHeader, p []byte, out *partials) error {
	r := lebin.Payload(p)
	k, local := r.U32(), r.U32()
	if len(r.Rest())%4 != 0 {
		r.Fail(errors.New("partial terms are not whole float32s"))
	}
	terms := make([]float32, len(r.Rest())/4)
	r.F32s(terms)
	*out = partials{K: int(k), Local: int(local), Terms: terms, Version: h.version, Seq: h.seq}
	return badFrame(&r)
}

// decodePurge reads a purge reply's count.
func decodePurge(p []byte) (int, error) {
	r := lebin.Payload(p)
	return int(r.U32()), badFrame(&r)
}

// shardInfo is an info reply: the shape of a shard's snapshot that the
// frontend's /v1/model reports, and the catalog size and training λ its
// fold-in needs. Version and Seq come from the reply header.
type shardInfo struct {
	Users, Items, K         int // Items is the whole catalog, not the slice
	Lambda                  float32
	WeightedLambda, Compact bool
	Version                 string
	Seq                     uint64
}

// An info reply's flag bits.
const (
	infoWeightedLambda byte = 1
	infoCompact        byte = 2
)

// snapshotInfo describes sn as an info reply's body does.
func snapshotInfo(sn *Snapshot) shardInfo {
	m := sn.Model
	items := sn.ItemTotal
	if items == 0 {
		items = sn.Items
	}
	return shardInfo{Users: m.X.Rows, Items: items, K: m.K, Lambda: m.Meta.Lambda,
		WeightedLambda: m.Meta.WeightedLambda, Compact: m.UserIDs != nil}
}

// appendInfo appends an info reply's body.
func appendInfo(b []byte, in shardInfo) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(in.Users))
	b = binary.LittleEndian.AppendUint32(b, uint32(in.Items))
	b = binary.LittleEndian.AppendUint32(b, uint32(in.K))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(in.Lambda))
	var flags byte
	if in.WeightedLambda {
		flags |= infoWeightedLambda
	}
	if in.Compact {
		flags |= infoCompact
	}
	return append(b, flags)
}

// decodeInfo reads an info reply into out.
func decodeInfo(h hopReplyHeader, p []byte, out *shardInfo) error {
	r := lebin.Payload(p)
	users, items, k, lambda, flags := r.U32(), r.U32(), r.U32(), r.F32(), r.U8()
	if flags&^(infoWeightedLambda|infoCompact) != 0 {
		r.Fail(fmt.Errorf("unknown info flags %#x", flags))
	}
	*out = shardInfo{Users: int(users), Items: int(items), K: int(k), Lambda: lambda,
		WeightedLambda: flags&infoWeightedLambda != 0, Compact: flags&infoCompact != 0,
		Version: h.version, Seq: h.seq}
	return badFrame(&r)
}

// errBadFrame wraps every way a hop payload fails to decode.
var errBadFrame = errors.New("bad frame")

// badFrame finishes a payload — bytes left over fail it like a short one —
// and returns its first failure as an errBadFrame, or nil.
func badFrame(r *lebin.Reader) error {
	if n := len(r.Rest()); n != 0 {
		r.Fail(fmt.Errorf("%d bytes past the end", n))
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %w", errBadFrame, err)
	}
	return nil
}
