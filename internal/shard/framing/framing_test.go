package framing

import (
	"bytes"
	"testing"
)

// The hello payload is four little-endian bytes of rank, and nothing else
// decodes as one (internal/shard's golden frames pin the same bytes inside
// a whole frame).
func TestHelloPayloadRoundTrip(t *testing.T) {
	if got := HelloPayload(0x01020304); !bytes.Equal(got, []byte{4, 3, 2, 1}) {
		t.Fatalf("HelloPayload(0x01020304) = %v", got)
	}
	for _, rank := range []int32{0, 1, 2, 1 << 20, -1} {
		got, ok := HelloRank(HelloPayload(rank))
		if !ok || got != rank {
			t.Errorf("HelloRank(HelloPayload(%d)) = %d, %v", rank, got, ok)
		}
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, {1, 2, 3, 4, 5}} {
		if _, ok := HelloRank(bad); ok {
			t.Errorf("HelloRank(%v) accepted a %d-byte payload", bad, len(bad))
		}
	}
	if HelloBodyLen != 1+len(HelloPayload(0)) || PrologueLen != LenPrefix+1 {
		t.Error("layout constants disagree with the encoder")
	}
}
