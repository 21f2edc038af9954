//go:build linux

package quant

import (
	"fmt"
	"testing"

	"repro/internal/asmtest"
)

// TestDot4I8NeverReadsPastARow: a 16-byte load that ran over the end of the
// last row, or of the query, would hit the guard page and kill the test
// binary. The widths cover whole groups, one tail column and fifteen.
func TestDot4I8NeverReadsPastARow(t *testing.T) {
	for _, k := range []int{16, 17, 31, 64, 65} {
		xq, rows := asmtest.Guarded[int8](t, k), asmtest.Guarded[int8](t, 4*k)
		for i := range xq {
			xq[i] = int8(i*7 - 128)
		}
		for i := range rows {
			rows[i] = int8(i*13 + 5)
		}
		mustMatchPortable(t, xq, rows, k, fmt.Sprintf("guarded k=%d", k))
	}
}
