package framing

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
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

// Append lays a frame out the way the trainer's streaming writer does: its
// hello frame is the trainer's golden hello (internal/shard's
// goldenHelloHex), and Read gives back the kind and payload.
func TestAppendReadRoundTrip(t *testing.T) {
	hello := Append(nil, KindHello, HelloPayload(3))
	if got, want := hex.EncodeToString(hello), "05000000000000000103000000a090411f"; got != want {
		t.Fatalf("Append(hello 3) = %s, want %s", got, want)
	}
	var stream []byte
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{7}, 5000), bytes.Repeat([]byte{9}, 200000)}
	for i, p := range payloads {
		stream = Append(stream, byte(20+i), p)
	}
	r := bytes.NewReader(stream)
	buf := make([]byte, 0, 16)
	for i, want := range payloads {
		kind, p, grown, err := Read(r, buf, 1<<20)
		if err != nil || kind != byte(20+i) || !bytes.Equal(p, want) {
			t.Fatalf("frame %d: kind %d, %d bytes, %v", i, kind, len(p), err)
		}
		buf = grown
	}
	if _, _, _, err := Read(r, buf, 1<<20); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// Read refuses what it cannot trust: a payload over the limit before
// reading it (returning the kind, so the caller can answer it), a damaged
// byte by its trailer, an empty frame, and a stream that ends mid-frame.
func TestReadRejects(t *testing.T) {
	frame := Append(nil, 30, []byte("payload"))
	kind, _, _, err := Read(bytes.NewReader(frame), nil, 6)
	if !errors.Is(err, ErrTooLarge) || kind != 30 {
		t.Errorf("7-byte payload under a 6-byte limit: kind %d, %v", kind, err)
	}
	for i := LenPrefix; i < len(frame); i++ {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x20
		if _, _, _, err := Read(bytes.NewReader(bad), nil, 64); !errors.Is(err, ErrCorrupt) {
			t.Errorf("byte %d flipped: %v, want ErrCorrupt", i, err)
		}
	}
	if _, _, _, err := Read(bytes.NewReader(make([]byte, PrologueLen)), nil, 64); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty frame: %v", err)
	}
	if _, _, _, err := Read(bytes.NewReader(frame[:len(frame)-1]), nil, 64); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: %v", err)
	}
}

// A prologue that declares a huge frame over a short stream costs Read the
// bytes that arrived, not the bytes declared.
func TestReadGrowsWithTheStream(t *testing.T) {
	stream := append(binary.LittleEndian.AppendUint64(nil, 1<<30), 40)
	stream = append(stream, make([]byte, 100)...)
	_, _, grown, err := Read(bytes.NewReader(stream), nil, 1<<31)
	if err != io.ErrUnexpectedEOF || cap(grown) > 2*readChunk {
		t.Fatalf("err %v, buffer grown to %d bytes", err, cap(grown))
	}
}
