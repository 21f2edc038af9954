package checkpoint

import (
	"bytes"
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
	for _, prec := range []quant.Precision{quant.F32, quant.I8} {
		st := &State{Iteration: 1, K: k, Lambda: 0.1, Variant: "tb+vec+fus", X: x, Y: y, Precision: prec}
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
		retained := int64(len(dec.X.Data)+len(dec.Y.Data)) * 4
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
