package rtrace

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"time"

	"repro/internal/lebin"
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
	r := lebin.Payload(b)
	return SpanContext{Trace: TraceID(r.U64()), Span: SpanID(r.U64()), Sampled: r.U8()&1 == 1}, nil
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

// minSpanLen is the fewest bytes an encoded span takes: three IDs, two
// one-byte varints, an empty name and no attrs. minAttrLen is an attr's
// fewest, two empty strings.
const minSpanLen, minAttrLen = 3*8 + 1 + 1 + 1 + 1, 1 + 1

// DecodeSpans reverses EncodeSpans. Every count is held to the bytes left
// in the payload before anything is allocated for it.
func DecodeSpans(b []byte) ([]SpanRecord, error) {
	r := lebin.Payload(b)
	spans := make([]SpanRecord, r.Count(r.Uvarint(), minSpanLen))
	for i := range spans {
		sp := &spans[i]
		sp.Trace = TraceID(r.U64())
		sp.ID = SpanID(r.U64())
		sp.Parent = SpanID(r.U64())
		sp.Start = time.Unix(0, r.Varint())
		sp.Dur = time.Duration(r.Varint())
		sp.Name = r.Str()
		if na := r.Count(r.Uvarint(), minAttrLen); na > 0 {
			sp.Attrs = make([]Attr, na)
			for j := range sp.Attrs {
				sp.Attrs[j] = Attr{Key: r.Str(), Value: r.Str()}
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("rtrace: span payload: %w", err)
	}
	return spans, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
