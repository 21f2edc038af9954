package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// TestModelCodecAllocatesNoSlabCopies holds Save and LoadModel to
// streaming, as the checkpoint package holds its codec: a 20 000 × 64
// factor pair with ID tables goes through without a matrix-sized
// temporary. LoadModel may allocate what the Model retains, Save nothing,
// plus 2 MiB each for the file buffer and the codec's scratch.
func TestModelCodecAllocatesNoSlabCopies(t *testing.T) {
	const rows, k, slack = 20000, 64, 2 << 20
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	m := &Model{
		K: k, X: linalg.NewDense(rows, k), Y: linalg.NewDense(rows, k),
		UserIDs: make([]int64, rows), ItemIDs: make([]int64, rows),
		Meta: Meta{Version: "v1", Lambda: 0.1},
	}
	for i := range m.X.Data {
		m.X.Data[i] = float32(i%97) * 0.01
	}
	var err error
	got := allocated(func() { err = m.Save(io.Discard) })
	if err != nil {
		t.Fatal(err)
	}
	if got > slack {
		t.Errorf("Save allocated %d bytes: %d over the ceiling", got, got-slack)
	}
	var file bytes.Buffer
	if err := m.Save(&file); err != nil {
		t.Fatal(err)
	}
	got = allocated(func() { _, err = LoadModel(bytes.NewReader(file.Bytes())) })
	if err != nil {
		t.Fatal(err)
	}
	retained := int64(2*rows*k*4 + 2*rows*8)
	if got > retained+slack {
		t.Errorf("LoadModel allocated %d bytes for %d retained: %d over the ceiling", got, retained, got-retained-slack)
	}
}
