package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/quant"
)

// allocated returns the bytes f allocates (test functions run one at a
// time, so nothing else allocates meanwhile).
func allocated(f func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// codecSlack is what Encode and Decode may allocate beyond the data itself:
// the 1 MiB file buffer, the codec's scratch, the header.
const codecSlack = 2 << 20

// TestCodecAllocatesNoSlabCopies holds Encode and Decode to streaming: a
// 20 000 × 64 factor pair goes through without a matrix-sized temporary.
// Decode may allocate what the State it returns retains, Encode what the
// quantizer itself allocates (nothing at f32), plus codecSlack each. Every
// shard pays Decode on every hot-swap, the trainer Encode on every
// checkpoint.
func TestCodecAllocatesNoSlabCopies(t *testing.T) {
	const rows, k = 20000, 64
	x, y := linalg.NewDense(rows, k), linalg.NewDense(rows, k)
	for i := range x.Data {
		x.Data[i] = float32(i%97) * 0.01
		y.Data[i] = float32(i%89) * -0.02
	}
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i) * 31
	}
	for _, tc := range []struct {
		prec quant.Precision
		ids  []int64 // nil: format v3; else both ID tables, format v4
	}{{quant.F32, nil}, {quant.I8, nil}, {quant.F32, ids}} {
		prec := tc.prec
		st := &State{Iteration: 1, K: k, Lambda: 0.1, Variant: "tb+vec+fus", X: x, Y: y, Precision: prec}
		if tc.ids != nil {
			st.Version, st.UserIDs, st.ItemIDs = "v4", tc.ids, tc.ids
		}
		var quantizer int64
		var err error
		if prec != quant.F32 {
			quantizer = allocated(func() {
				_, err = quant.EncodeDense(x, prec)
				_, err = quant.EncodeDense(y, prec)
			})
		}
		got := allocated(func() { err = Encode(io.Discard, st) })
		if err != nil {
			t.Fatal(err)
		}
		if got > quantizer+codecSlack {
			t.Errorf("%v: Encode allocated %d bytes, quantizer alone %d: %d over the ceiling",
				prec, got, quantizer, got-quantizer-codecSlack)
		}

		var file bytes.Buffer
		if err := Encode(&file, st); err != nil {
			t.Fatal(err)
		}
		var dec *State
		got = allocated(func() { dec, err = Decode(bytes.NewReader(file.Bytes())) })
		if err != nil {
			t.Fatal(err)
		}
		retained := int64(len(dec.X.Data)+len(dec.Y.Data))*4 + int64(len(dec.UserIDs)+len(dec.ItemIDs))*8
		for _, q := range []*quant.Matrix{dec.QX, dec.QY} {
			if q != nil {
				retained += int64(len(q.Scales))*4 + int64(len(q.I8)) + int64(len(q.F16))*2
			}
		}
		if got > retained+codecSlack {
			t.Errorf("%v: Decode allocated %d bytes for %d retained: %d over the ceiling",
				prec, got, retained, got-retained-codecSlack)
		}
	}
}

// decodeBound is what Decode may allocate for a file that holds none of the
// factors its header declares: its fixed buffer, the codec's 64 KiB
// scratch, and 64 KiB more.
const decodeBound = 64<<10 + 64<<10

// hugeHeader is a checkpoint of the given format version that is all
// header: it declares a 2²² × 1024 float32 X, 16 GiB, and brings none of
// it. It is the shortest file that reaches the factor section: the fixed
// fields, an empty variant and an empty history.
func hugeHeader(version uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(Magic))
	for _, v := range []uint64{uint64(version), 1024, 1 << 22, 1, 1, 0} { // version, k, m, n, iteration, seed
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, 0, 0, 0, 0, 0) // lambda, λ convention
	if version >= formatV2 {
		b = append(b, 0) // precision f32
	}
	if version >= formatV3 {
		b = append(b, make([]byte, 10)...) // the training-mode block
	}
	return append(b, make([]byte, 2+4)...) // variant length, history length
}

// hugeModelHeader is a format-v4 file that declares 2³² users and 2³² items
// at k = 1 and carries, where its factors should be, only a model block
// with the ID flag set: 64 GiB of factors and IDs, none of them present.
func hugeModelHeader() []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(Magic))
	for _, v := range []uint64{uint64(FormatVersion), 1, 1 << 32, 1 << 32, 1, 0} { // version, k, m, n, iteration, seed
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, make([]byte, 4+1+1+10+2+4)...) // lambda .. history length, all zero
	return append(b, 0, 0, 1)                    // version length 0, ID flag set
}

// TestHugeHeaderBoundsAllocation: a header that declares 16 GiB or more of
// factors over a file that holds none of them fails Load with ErrCorrupt after
// allocating no more than decodeBound, at every format version: the
// factor's dimensions are believed only as far as the bytes behind them.
func TestHugeHeaderBoundsAllocation(t *testing.T) {
	for _, tc := range []struct {
		version uint32
		file    []byte
	}{
		{formatV1, hugeHeader(formatV1)},
		{formatV2, hugeHeader(formatV2)},
		{formatV3, hugeHeader(formatV3)},
		{FormatVersion, hugeModelHeader()},
	} {
		fsys := NewMemFS()
		fsys.WriteFile("ckpt", tc.file)
		var err error
		if n := allocated(func() { _, err = Load(fsys, "ckpt") }); n > decodeBound {
			t.Errorf("v%d: Load of a %d-byte file allocated %d bytes, bound %d", tc.version, len(tc.file), n, decodeBound)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("v%d: err = %v, want ErrCorrupt", tc.version, err)
		}
	}
}
