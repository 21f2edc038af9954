package core

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/linalg"
)

// TestModelCodecAllocatesNoSlabCopies holds the model file to streaming, as
// the checkpoint package holds its codec: a 20 000 × 64 factor pair with ID
// tables and a label (format v4) is written and read back through
// checkpoint.Decode and ModelOf without a matrix-sized temporary. Loading
// may allocate what the Model retains, saving nothing, plus 2 MiB each for
// the file buffer and the codec's scratch.
func TestModelCodecAllocatesNoSlabCopies(t *testing.T) {
	const rows, k, slack = 20000, 64, 2 << 20
	allocated := func(f func()) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	cfg := Config{K: k, Lambda: 0.1, Iterations: 1}
	st := cfg.State("tb+vec+fus", cfg.Iterations, linalg.NewDense(rows, k), linalg.NewDense(rows, k))
	st.Version, st.UserIDs, st.ItemIDs = "v1", make([]int64, rows), make([]int64, rows)
	for i := range st.X.Data {
		st.X.Data[i] = float32(i%97) * 0.01
	}
	var err error
	got := allocated(func() { err = checkpoint.Encode(io.Discard, st) })
	if err != nil {
		t.Fatal(err)
	}
	if got > slack {
		t.Errorf("saving allocated %d bytes: %d over the ceiling", got, got-slack)
	}
	var file bytes.Buffer
	if err := checkpoint.Encode(&file, st); err != nil {
		t.Fatal(err)
	}
	got = allocated(func() { _, err = loadModel(file.Bytes()) })
	if err != nil {
		t.Fatal(err)
	}
	retained := int64(2*rows*k*4 + 2*rows*8)
	if got > retained+slack {
		t.Errorf("loading allocated %d bytes for %d retained: %d over the ceiling", got, retained, got-retained-slack)
	}
}
