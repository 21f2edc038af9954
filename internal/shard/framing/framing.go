// Package framing is the byte layout of the BSP trainer's exchange frames:
// the one definition internal/shard's protocol writes and reads by and
// internal/shard/chaosnet (which shard imports, so cannot import back)
// counts frames and learns ranks by. On the wire a frame is a little-endian
// uint64 body length, the body — whose first byte names the frame kind —
// and a little-endian uint32 CRC-32C of the body.
package framing

import "encoding/binary"

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
