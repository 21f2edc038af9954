package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/lebin"
	"repro/internal/quant"
)

// allocated returns the bytes f allocates.
func allocated(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// loadBound is what loading a model file may allocate beyond what it
// keeps: the decoder's fixed buffer, the codec's 64 KiB scratch, and
// 64 KiB more.
const loadBound = 64<<10 + 64<<10

// FuzzLoadModel: loading a model file (checkpoint.Decode, then ModelOf)
// must never panic or allocate for bytes its input does not hold, a model
// it accepts has ID tables that match its factors, and it survives a
// save/load round trip.
func FuzzLoadModel(f *testing.F) {
	// Seed with a real model file: a trained model with a label and ID tables.
	mx := testMatrix(f)
	cfg := Config{K: 4, Seed: 1, Iterations: 1}
	model, _, err := Train(mx, cfg)
	if err != nil {
		f.Fatal(err)
	}
	model.Meta.Version = "v1"
	model.UserIDs, model.ItemIDs = make([]int64, model.X.Rows), make([]int64, model.Y.Rows)
	for i := range model.ItemIDs {
		model.ItemIDs[i] = int64(i) * 3
	}
	file, err := modelFile(cfg, model)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	unknownFlag := bytes.Clone(file)
	unknownFlag[len(file)-4-8*(model.X.Rows+model.Y.Rows)-1] = 2 // the ID flag
	f.Add(unknownFlag)
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Add(hugeModelHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var st *checkpoint.State
		var err error
		// A quantized file is kept and dequantized: at most 8 bytes a byte.
		if n := allocated(func() { st, err = checkpoint.Decode(bytes.NewReader(data), quant.F32) }); n > loadBound+8*len(data) {
			t.Fatalf("a %d-byte input allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		m := ModelOf(st)
		if m.UserIDs != nil && len(m.UserIDs) != m.X.Rows || m.ItemIDs != nil && len(m.ItemIDs) != m.Y.Rows {
			t.Fatalf("ID tables %d, %d for a %d × %d model", len(m.UserIDs), len(m.ItemIDs), m.X.Rows, m.Y.Rows)
		}
		var out bytes.Buffer
		if err := checkpoint.Encode(&out, st); err != nil {
			t.Fatalf("accepted model failed to save: %v", err)
		}
		again, err := loadModel(out.Bytes())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.Meta != m.Meta || !slices.Equal(again.UserIDs, m.UserIDs) || !slices.Equal(again.ItemIDs, m.ItemIDs) {
			t.Fatal("round trip changed the label, λ or ID tables")
		}
	})
}

// hugeModelHeader is a model file, all header, that declares a 2²² × 1024
// float32 X: 16 GiB it does not bring.
func hugeModelHeader() []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(checkpoint.Magic))
	for _, v := range []uint64{uint64(checkpoint.FormatVersion), 1024, 1 << 22, 1, 1, 0} { // version, k, m, n, iteration, seed
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return append(b, make([]byte, 4+1+1+10+2+4)...) // lambda .. history length, all zero
}

// TestHugeModelHeaderBoundsAllocation: loading a model file believes a
// header's dimensions only as far as the bytes behind them.
func TestHugeModelHeaderBoundsAllocation(t *testing.T) {
	var err error
	if n := allocated(func() { _, err = loadModel(hugeModelHeader()) }); n > loadBound {
		t.Errorf("loading a %d-byte header declaring 16 GiB allocated %d bytes, bound %d", len(hugeModelHeader()), n, loadBound)
	}
	if !errors.Is(err, lebin.ErrCount) {
		t.Errorf("err = %v, want lebin.ErrCount", err)
	}
}
