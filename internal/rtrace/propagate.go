package rtrace

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"time"
)

// TraceparentHeader carries the span context across HTTP hops in the W3C
// trace-context layout: 00-<32 hex trace>-<16 hex span>-<2 hex flags>.
// rtrace IDs are 64-bit, so the trace field is left-padded to the standard
// 128-bit width and only the low 16 hex digits are read back.
const TraceparentHeader = "traceparent"

// SpanContext is the portable identity of a span: what crosses process
// boundaries in an HTTP header or a trainer TCP frame.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// Traceparent renders the context as a traceparent header value.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-0000000000000000" + hex16(uint64(sc.Trace)) + "-" + hex16(uint64(sc.Span)) + "-" + flags
}

// Inject writes the context into outbound request headers. Invalid contexts
// write nothing.
func Inject(h http.Header, sc SpanContext) {
	if !sc.Valid() {
		return
	}
	h.Set(TraceparentHeader, sc.Traceparent())
}

// Extract reads the inbound context; a missing or malformed header returns
// the zero (invalid) context.
func Extract(h http.Header) SpanContext {
	return ParseTraceparent(h.Get(TraceparentHeader))
}

// ParseTraceparent decodes a traceparent value. Only version 00 with the
// standard field widths is accepted.
func ParseTraceparent(s string) SpanContext {
	// 00-<32>-<16>-<2> → 2+1+32+1+16+1+2 = 55 bytes.
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}
	}
	trace, ok1 := parseHex(s[19:35]) // low 64 bits of the 128-bit field
	span, ok2 := parseHex(s[36:52])
	flags, ok3 := parseHex(s[53:55])
	if !ok1 || !ok2 || !ok3 {
		return SpanContext{}
	}
	return SpanContext{Trace: TraceID(trace), Span: SpanID(span), Sampled: flags&1 == 1}
}

func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// BinaryContextLen is the wire size of a binary span context: 8-byte trace,
// 8-byte span (little-endian), 1 flag byte — the payload of the trainer's
// frameTraceCtx frame and the trace prefix of a serving shard hop request.
const BinaryContextLen = 17

// AppendBinary appends the 17-byte binary form.
func (sc SpanContext) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(sc.Trace))
	b = binary.LittleEndian.AppendUint64(b, uint64(sc.Span))
	flags := byte(0)
	if sc.Sampled {
		flags = 1
	}
	return append(b, flags)
}

// ContextFromBinary decodes a 17-byte binary span context.
func ContextFromBinary(b []byte) (SpanContext, error) {
	if len(b) != BinaryContextLen {
		return SpanContext{}, fmt.Errorf("rtrace: binary span context is %d bytes, want %d", len(b), BinaryContextLen)
	}
	return SpanContext{
		Trace:   TraceID(binary.LittleEndian.Uint64(b)),
		Span:    SpanID(binary.LittleEndian.Uint64(b[8:])),
		Sampled: b[16]&1 == 1,
	}, nil
}

// EncodeSpans serializes finished span records for shipping between
// processes (a trainer worker's frameSpans payload): a uvarint count, then
// per span the fixed IDs/timestamps and length-prefixed name and attrs.
func EncodeSpans(spans []SpanRecord) []byte {
	b := binary.AppendUvarint(nil, uint64(len(spans)))
	for _, r := range spans {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Trace))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Parent))
		b = binary.AppendVarint(b, r.Start.UnixNano())
		b = binary.AppendVarint(b, int64(r.Dur))
		b = appendString(b, r.Name)
		b = binary.AppendUvarint(b, uint64(len(r.Attrs)))
		for _, a := range r.Attrs {
			b = appendString(b, a.Key)
			b = appendString(b, a.Value)
		}
	}
	return b
}

// DecodeSpans reverses EncodeSpans.
func DecodeSpans(b []byte) ([]SpanRecord, error) {
	d := &decoder{b: b}
	n := d.uvarint()
	if n > 1<<20 {
		return nil, fmt.Errorf("rtrace: implausible span count %d", n)
	}
	spans := make([]SpanRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		var r SpanRecord
		r.Trace = TraceID(d.u64())
		r.ID = SpanID(d.u64())
		r.Parent = SpanID(d.u64())
		r.Start = time.Unix(0, d.varint())
		r.Dur = time.Duration(d.varint())
		r.Name = d.str()
		na := d.uvarint()
		if na > 1<<16 {
			return nil, fmt.Errorf("rtrace: implausible attr count %d", na)
		}
		for j := uint64(0); j < na; j++ {
			r.Attrs = append(r.Attrs, Attr{Key: d.str(), Value: d.str()})
		}
		if d.err != nil {
			return nil, d.err
		}
		spans = append(spans, r)
	}
	if d.err != nil {
		return nil, d.err
	}
	return spans, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder is a cursor over an encoded span payload; the first malformed
// field latches err and zeroes every later read.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("rtrace: truncated span payload")
	}
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
