package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

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
//
// A reply payload starts with u16 status, u64 snapshot seq, u32 length and
// the snapshot version's bytes. Then, for a 2xx status:
//
//	recommend, score  u32 m, m×(i32 global item, i64 item ID, f64 score)
//	partials          u32 k, u32 local ratings, PackedLen(k)+k f32: the
//	                  packed Gram terms, then the RHS
//	purge             u32 cache entries dropped
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
	}
	panic(fmt.Sprintf("serve: hop kind %d is not a request", kind))
}

// decode reads a kind request payload into q. Every array's length is held
// to the bytes left in the payload before it is allocated, and a payload
// with bytes left over is as malformed as a short one.
func (q *hopRequest) decode(kind byte, p []byte) error {
	d := hopDecoder{b: p}
	q.trace = rtrace.SpanContext{}
	switch d.u8() {
	case 0:
	case 1:
		q.trace, _ = rtrace.ContextFromBinary(d.take(rtrace.BinaryContextLen))
	default:
		d.fail("bad trace prefix")
	}
	switch kind {
	case hopRecommend:
		q.user, q.n = int64(d.u64()), int(d.u32())
	case hopScore:
		q.n = int(d.u32())
		q.x = d.f32s(q.x, d.count(4))
		q.items = d.i32s(q.items, d.count(4))
	case hopPartials:
		m := d.count(8)
		q.items = d.i32s(q.items, m)
		q.ratings = d.f32s(q.ratings, m)
	case hopPurge:
		q.user = int64(d.u64())
	default:
		return fmt.Errorf("unknown frame kind %d", kind)
	}
	return d.end()
}

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
	d := hopDecoder{b: p}
	h := hopReplyHeader{status: int(d.u16()), seq: d.u64()}
	v := d.take(d.count(1))
	if d.err != nil {
		return h, nil, d.err
	}
	if string(v) != *last {
		*last = string(v)
	}
	h.version = *last
	return h, d.b, nil
}

// decodeScored reads a recommend or score reply's items into out.
func decodeScored(h hopReplyHeader, p []byte, out *RecommendResponse) error {
	d := hopDecoder{b: p}
	m := d.count(20)
	if d.err != nil {
		return d.err
	}
	items := make([]RecItem, m)
	for i := range items {
		items[i] = RecItem{Item: int(int32(d.u32())), ID: int64(d.u64()), Score: math.Float64frombits(d.u64())}
	}
	*out = RecommendResponse{Version: h.version, Seq: h.seq, Items: items}
	return d.end()
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
	d := hopDecoder{b: p}
	k, local := d.u32(), d.u32()
	if d.err == nil && len(d.b)%4 != 0 {
		d.fail("partial terms are not whole float32s")
	}
	terms := d.f32s(nil, len(d.b)/4)
	*out = partials{K: int(k), Local: int(local), Terms: terms, Version: h.version, Seq: h.seq}
	return d.end()
}

// decodePurge reads a purge reply's count.
func decodePurge(p []byte) (int, error) {
	d := hopDecoder{b: p}
	n := d.u32()
	return int(n), d.end()
}

// errBadFrame wraps every way a hop payload fails to decode.
var errBadFrame = errors.New("bad frame")

// hopDecoder reads a hop payload front to back. The first failure sticks:
// every later read returns zero, so a decoder checks err once at the end.
type hopDecoder struct {
	b   []byte
	err error
}

func (d *hopDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errBadFrame, msg)
	}
	d.b = nil
}

// take returns the next n bytes, or nil once the payload is short.
func (d *hopDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b) {
		d.fail("payload ends early")
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *hopDecoder) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *hopDecoder) u16() uint16 {
	if p := d.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *hopDecoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *hopDecoder) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// count reads an element count and holds it to the bytes left, at size
// bytes an element, so no decoder allocates for elements a payload cannot
// hold.
func (d *hopDecoder) count(size int) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(size) > uint64(len(d.b)) {
		d.fail(fmt.Sprintf("%d elements declared, %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

// f32s reads n float32s into dst's storage.
func (d *hopDecoder) f32s(dst []float32, n int) []float32 {
	p := d.take(4 * n)
	dst = slices.Grow(dst[:0], len(p)/4)[:len(p)/4]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return dst
}

// i32s reads n int32s into dst's storage.
func (d *hopDecoder) i32s(dst []int32, n int) []int32 {
	p := d.take(4 * n)
	dst = slices.Grow(dst[:0], len(p)/4)[:len(p)/4]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return dst
}

// end fails a payload with bytes left over and returns the first failure.
func (d *hopDecoder) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail(fmt.Sprintf("%d bytes past the end", len(d.b)))
	}
	return d.err
}
