package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

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

// loadBound is what LoadModel may allocate beyond what it keeps: its fixed
// buffer, the codec's 64 KiB scratch, and 64 KiB more. A model keeps at
// most its own bytes in memory, so a load of n bytes stays under
// loadBound + n.
const loadBound = 64<<10 + 64<<10

// FuzzLoadModel: the binary model parser must never panic or allocate for
// bytes its input does not hold, and anything it accepts must survive a
// save/load round trip.
func FuzzLoadModel(f *testing.F) {
	// Seed with a real model.
	mx := testMatrix(f)
	model, _, err := Train(mx, Config{Seed: 1, Iterations: 1, K: 4})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	unknownFlag := bytes.Clone(buf.Bytes())
	unknownFlag[modelFlagsOffset] |= 4
	f.Add(unknownFlag)
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Add(hugeModelHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *Model
		var err error
		if n := allocated(func() { m, err = LoadModel(bytes.NewReader(data)) }); n > loadBound+len(data) {
			t.Fatalf("a %d-byte input allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatalf("accepted model failed to save: %v", err)
		}
		if _, err := LoadModel(&out); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// hugeModelHeader is a 40-byte model file, all header, that declares a
// 2²² × 1024 float32 X: 16 GiB it does not bring.
func hugeModelHeader() []byte {
	var b []byte
	for _, v := range []uint64{uint64(modelMagic), 1024, 1 << 22, 1, 0} { // magic, k, m, n, flags
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestHugeModelHeaderBoundsAllocation: LoadModel believes a header's
// dimensions only as far as the bytes behind them.
func TestHugeModelHeaderBoundsAllocation(t *testing.T) {
	var err error
	if n := allocated(func() { _, err = LoadModel(bytes.NewReader(hugeModelHeader())) }); n > loadBound {
		t.Errorf("LoadModel of a 40-byte header declaring 16 GiB allocated %d bytes, bound %d", n, loadBound)
	}
	if !errors.Is(err, lebin.ErrCount) {
		t.Errorf("err = %v, want lebin.ErrCount", err)
	}
}
