package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/host"
	"repro/internal/quant"
)

// FuzzLoadCheckpoint: the checkpoint decoder must return errors — never
// panic, never allocate for bytes its input does not hold — on arbitrary
// input, and anything it
// accepts must survive an encode/decode round trip. Seeded with valid
// checkpoints at every precision (the v2 quantized sections carry their
// own scale/error fields for the fuzzer to mangle) plus the corruption
// shapes crashes actually produce: truncations and bit flips.
func FuzzLoadCheckpoint(f *testing.F) {
	st := testState(3, 1.25)
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])                         // truncated mid-payload
	f.Add(valid[:57])                                   // truncated inside the header
	f.Add(append([]byte(nil), valid[:len(valid)-1]...)) // missing CRC byte
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x01
	f.Add(flipped)
	for _, prec := range []quant.Precision{quant.F16, quant.I8} {
		qst := testState(5, 0.75)
		qst.Precision = prec
		var qbuf bytes.Buffer
		if err := Encode(&qbuf, qst); err != nil {
			f.Fatal(err)
		}
		qvalid := qbuf.Bytes()
		f.Add(qvalid)
		f.Add(qvalid[:len(qvalid)*3/4]) // truncated inside the quantized payload
		qflip := append([]byte(nil), qvalid...)
		qflip[len(qflip)/2] ^= 0x10
		f.Add(qflip)
	}
	// The v3 training-mode block: a valid implicit iALS++/CG state, a
	// truncation inside the mode block (header is 7*8 + lambda 4 + weighted
	// 1 + precision 1 = 62 bytes; the block spans 62..72), and bit flips on
	// the mode and solver bytes (which must decode or reject, never panic).
	ist := testState(9, 2.5)
	ist.Implicit = true
	ist.Alpha = 40
	ist.Solver = host.SolverCG
	ist.CGIters = 5
	var ibuf bytes.Buffer
	if err := Encode(&ibuf, ist); err != nil {
		f.Fatal(err)
	}
	ivalid := ibuf.Bytes()
	f.Add(ivalid)
	f.Add(ivalid[:66]) // truncated mid mode block
	for _, off := range []int{62, 67} {
		iflip := append([]byte(nil), ivalid...)
		iflip[off] ^= 0x03
		f.Add(iflip)
	}
	for _, version := range []uint32{formatV1, formatV2, formatV3} {
		f.Add(hugeHeader(version))
	}
	// The v4 model block: a version label and both ID tables, then the same
	// with the flag byte flipped and with the tail cut inside the IDs.
	mst := withModelBlock(testState(4, 0.5), true)
	var mbuf bytes.Buffer
	if err := Encode(&mbuf, mst); err != nil {
		f.Fatal(err)
	}
	mvalid := mbuf.Bytes()
	f.Add(mvalid)
	f.Add(mvalid[:len(mvalid)-20]) // truncated inside the item IDs
	mflip := append([]byte(nil), mvalid...)
	mflip[len(mflip)-4-8*(4+5)-1] ^= 0x02 // the ID flag
	f.Add(mflip)
	f.Add(hugeModelHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var st *State
		var err error
		// Beyond its fixed buffers Decode allocates only for bytes it
		// read, at most 5 a byte: an i8 payload is kept and dequantized.
		if n := allocated(func() { st, err = Decode(bytes.NewReader(data)) }); n > decodeBound+8*int64(len(data)) {
			t.Fatalf("a %d-byte input allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Encode(&out, st); err != nil {
			t.Fatalf("accepted checkpoint failed to re-encode: %v", err)
		}
		if _, err := Decode(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
