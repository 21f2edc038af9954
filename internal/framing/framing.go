// Package framing is the repository's one frame layout. The BSP trainer's
// exchange (internal/shard, and internal/shard/chaosnet, which counts frames
// and learns ranks by it) and the serving fleet's shard hop (internal/serve)
// both speak it. On the wire a frame is a little-endian uint64 body length,
// the body — whose first byte names the frame kind — and a little-endian
// uint32 CRC-32C of the body.
//
// The trainer streams its megabyte factor and data frames through
// internal/lebin, which keeps the running CRC; Append and Read are the same
// layout for frames that fit in memory.
package framing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	// LenPrefix is the size of the body-length prefix.
	LenPrefix = 8
	// PrologueLen is the length prefix plus the kind byte: what it takes
	// to classify a frame.
	PrologueLen = LenPrefix + 1
	// CRCTrailer is the size of the per-frame checksum trailer.
	CRCTrailer = 4
)

// The two frame kinds the fault injector tells apart from the rest (the
// others are internal/shard's alone).
const (
	// KindHello opens every worker connection: its payload is the worker's
	// rank (HelloPayload).
	KindHello byte = 1
	// KindHeartbeat is the empty liveness marker a worker emits while
	// computing. Its timing is wall-clock-driven, so it never advances a
	// frame ordinal.
	KindHeartbeat byte = 7
)

// HelloBodyLen is a hello frame's body: the kind byte and a 4-byte rank.
const HelloBodyLen = 5

// HelloPayload encodes a hello frame's payload, the little-endian rank.
func HelloPayload(rank int32) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(rank))
}

// HelloRank decodes a hello frame's payload; ok is false unless it is
// exactly the 4-byte rank.
func HelloRank(payload []byte) (rank int32, ok bool) {
	if len(payload) != HelloBodyLen-1 {
		return 0, false
	}
	return int32(binary.LittleEndian.Uint32(payload)), true
}

// BodyLen returns the body length a frame's length prefix, the first
// LenPrefix bytes of p, declares.
func BodyLen(p []byte) uint64 { return binary.LittleEndian.Uint64(p) }

// castagnoli returns the standard library's cached CRC-32C table. It is a
// call, not a package variable, so importing framing for its constants adds
// no initializer to a binary.
func castagnoli() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) }

// Append appends one whole frame of the given kind and payload to dst.
func Append(dst []byte, kind byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(1+len(payload)))
	start := len(dst)
	dst = append(dst, kind)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli()))
}

var (
	// ErrTooLarge reports a frame whose declared payload exceeds the
	// reader's bound. Nothing past the prologue has been read, so the
	// stream is out of step and the connection must be dropped.
	ErrTooLarge = errors.New("framing: frame exceeds limit")
	// ErrCorrupt reports an empty frame or a CRC-32C trailer that does not
	// match the body.
	ErrCorrupt = errors.New("framing: frame checksum mismatch")
)

// readChunk caps how far Read grows its buffer ahead of the bytes that have
// arrived, so a prologue that declares a large frame over a short stream
// costs at most twice what the peer really sent.
const readChunk = 64 << 10

// Read reads one frame from r into buf, reusing its capacity, and returns
// its kind, its payload and the buffer both are backed by (keep it for the
// next call). A payload longer than limit fails with ErrTooLarge before
// anything past the prologue is read; the kind comes back with that error so
// the caller can answer it.
func Read(r io.Reader, buf []byte, limit int) (kind byte, payload, grown []byte, err error) {
	if cap(buf) < PrologueLen+CRCTrailer {
		buf = make([]byte, 0, 4<<10)
	}
	buf = buf[:PrologueLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	n := BodyLen(buf)
	kind = buf[LenPrefix]
	if n == 0 {
		return 0, nil, buf, fmt.Errorf("%w: empty frame", ErrCorrupt)
	}
	if n-1 > uint64(limit) {
		return kind, nil, buf, fmt.Errorf("%w: %d-byte payload, limit %d", ErrTooLarge, n-1, limit)
	}
	// The kind is the body's first byte: keep it in place for the CRC.
	need := int(n) + CRCTrailer
	buf = append(buf[:0], kind)
	for len(buf) < need {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(need-len(buf), max(len(buf), readChunk)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(need, cap(buf))])
		buf = buf[:len(buf)+got]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, nil, buf, err
		}
	}
	body := buf[:n]
	if got, want := binary.LittleEndian.Uint32(buf[n:]), crc32.Checksum(body, castagnoli()); got != want {
		return 0, nil, buf, fmt.Errorf("%w (kind=%d, trailer=%08x, computed=%08x)", ErrCorrupt, kind, got, want)
	}
	return kind, body[1:], buf, nil
}
