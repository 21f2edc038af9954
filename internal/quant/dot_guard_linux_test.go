//go:build linux

package quant

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/asmtest"
)

// TestDot4I8NeverReadsPastARow: a load that ran over the end of
// the last row, of the query or of the scales and bounds would hit the
// guard page and kill the test binary. An infinite qnorm and threshold walk
// every block; a −Inf threshold on the last block alone reads all of it.
// The widths cover whole groups, tails of one column and of fifteen, and a
// k under one group.
func TestDot4I8NeverReadsPastARow(t *testing.T) {
	const blocks = 3
	for _, k := range []int{1, 15, 16, 17, 31, 64, 65} {
		c := kernelCall{xq: asmtest.Guarded[int8](t, k), rows: asmtest.Guarded[int8](t, 4*blocks*k),
			scales: asmtest.Guarded[float32](t, 4*blocks), bounds: asmtest.Guarded[float32](t, 4*blocks),
			xs: 1, qnorm: math.Inf(1), thr: math.Inf(1)}
		for i := range c.xq {
			c.xq[i] = int8(i*7 - 128)
		}
		for i := range c.rows {
			c.rows[i] = int8(i*13 + 5)
		}
		for i := range c.scales {
			c.scales[i], c.bounds[i] = 1, 1
		}
		what := fmt.Sprintf("guarded k=%d", k)
		if b, _, _ := mustMatchTwin(t, c, what); b != blocks {
			t.Fatalf("%s: walk ended at block %d of %d", what, b, blocks)
		}
		last := (blocks - 1) * 4
		c.rows, c.scales, c.bounds, c.thr = c.rows[last*k:], c.scales[last:], c.bounds[last:], math.Inf(-1)
		mustMatchTwin(t, c, what+" last block")
	}
}
