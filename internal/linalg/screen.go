package linalg

import "math"

// Screen8 is the serving scan's screen (metrics.ScanTopK). It walks a run
// of 8-row blocks of int16 rows, k8 = len(xq) apart (row i at rows[i·k8:],
// block b rows 8b…8b+7; a partial block at the end is not read), and
// returns the first block with a row whose int32 dot with xq is not below
// cut, with bit r of mask set for each such row r. After the last block it
// returns len(rows)/(8·k8) and mask 0. Each dot is exact while
// k8·max|xq_j|·max|row_j| < 2³¹ (the caller's quantization keeps it so) and
// wraps like Go's int32 otherwise; integer sums do not depend on their
// order, so every binding returns the same block and mask. A caller that
// knows how far a dot times its scales can be from the float score uses it
// to skip the exact score of rows that cannot reach a threshold, and pays
// no call for a block none of whose rows can. SSE2 where the build has it
// and k8 is a multiple of 8 (ScreenVectorized), the portable body elsewhere.
func Screen8(xq, rows []int16, cut int32) (b, mask int) { return screen8(xq, rows, cut) }

// ScreenVectorized reports whether Screen8 runs a vector kernel in this
// build (SSE2 on amd64 without purego, GOAMD64=v3 included: its sums are
// integers, so no build fuses them). Only then is screening a block
// cheaper than scoring it exactly — the portable body is scalar and loses
// to Dot8Wide — so the serving scan screens only where this holds.
func ScreenVectorized() bool { return screenKernelName != "portable" }

// ScreenKernelName names Screen8's binding in this build: "sse2" on amd64,
// "portable" elsewhere and under -tags purego. It is bound apart from the
// eight float kernels (KernelName): at GOAMD64=v3 the screen is assembly
// while Dot8Wide is portable.
func ScreenKernelName() string { return screenKernelName }

// screen8Portable is Screen8's portable body and the oracle its assembly is
// tested against.
func screen8Portable(xq, rows []int16, cut int32) (b, mask int) {
	k := len(xq)
	if k == 0 {
		return 0, 0
	}
	blocks := len(rows) / (8 * k)
	for b = 0; b < blocks; b++ {
		block := rows[8*b*k:]
		for r := range 8 {
			if screenDot(xq, block[r*k:][:k]) >= cut {
				mask |= 1 << r
			}
		}
		if mask != 0 {
			return b, mask
		}
	}
	return blocks, 0
}

// screenDot is one row's int32 dot in Go's wrapping arithmetic.
func screenDot(xq, row []int16) (s int32) {
	row = row[:len(xq)]
	for j, xv := range xq {
		s += int32(xv) * int32(row[j])
	}
	return s
}

// MaxRowNorm returns max_i ‖row i‖₂ over d's rows, accumulated in float64
// (0 for no rows). A row holding a NaN makes it NaN and one holding an Inf
// (with no NaN) +Inf, so a caller can test for a usable bound with a single
// finiteness check.
func MaxRowNorm(d *Dense) float64 {
	var m float64
	for i := 0; i < d.Rows; i++ {
		m = max(m, Nrm2Sq(d.Row(i))) // the builtin keeps a NaN
	}
	return math.Sqrt(m)
}
