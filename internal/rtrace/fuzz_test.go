package rtrace

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/lebin"
)

// allocated returns the bytes f allocates.
func allocated(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// decodeSlack is what DecodeSpans may allocate beyond the records it
// returns, and spanExpansion what a record may cost per payload byte: an
// attr is 32 bytes in memory and 2 on the wire at its shortest.
const decodeSlack, spanExpansion = 64 << 10, 32

// hugeSpanCount is a 3-byte payload, the uvarint 2²⁰ and nothing behind it.
var hugeSpanCount = []byte{0x80, 0x80, 0x40}

// TestHugeSpanCountBoundsAllocation: DecodeSpans believes a declared span
// count only as far as the bytes behind it.
func TestHugeSpanCountBoundsAllocation(t *testing.T) {
	var err error
	if n := allocated(func() { _, err = DecodeSpans(hugeSpanCount) }); n > decodeSlack {
		t.Errorf("a 3-byte payload declaring 2²⁰ spans allocated %d bytes, bound %d", n, decodeSlack)
	}
	if !errors.Is(err, lebin.ErrCount) {
		t.Errorf("err = %v, want lebin.ErrCount", err)
	}
}

// FuzzDecodeSpans: DecodeSpans never panics and never allocates for bytes
// its payload does not hold, and whatever it accepts encodes back to a
// payload that decodes to the same spans.
func FuzzDecodeSpans(f *testing.F) {
	f.Add(EncodeSpans([]SpanRecord{
		{Trace: 1, ID: 2, Name: "train", Start: time.Unix(100, 250), Dur: 5 * time.Millisecond},
		{Trace: 1, ID: 3, Parent: 2, Name: "iter1/x", Start: time.Unix(100, 500), Dur: -1,
			Attrs: []Attr{{"worker", "0"}, {"", ""}}},
	}))
	f.Add(EncodeSpans(nil))
	f.Add(hugeSpanCount)
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var spans []SpanRecord
		var err error
		if n := allocated(func() { spans, err = DecodeSpans(data) }); n > decodeSlack+spanExpansion*len(data) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		again, err := DecodeSpans(EncodeSpans(spans))
		if err != nil {
			t.Fatalf("re-encoded spans failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, spans) {
			t.Fatalf("round trip changed the spans:\n%+v\n%+v", spans, again)
		}
	})
}
