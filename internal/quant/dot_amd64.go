//go:build amd64 && !purego

package quant

import "unsafe"

// SSE2 is part of the amd64 baseline (GOAMD64=v1), so this kernel needs no
// CPUID probe and no fallback: the build constraint is the whole selection.
const kernelName = "sse2"

// blocksI8 is the ranked int8 scan's kernel (contract: blocksI8Portable).
// The slice expressions are the Go loop's bounds checks; the assembly
// checks none of its own and reads no byte outside them.
func blocksI8(xq, rows []int8, scales, bounds []float32, xs, qnorm, thr float64) (b, mask int, sums [4]int32) {
	k, blocks := len(xq), len(scales)/4
	_, _ = rows[:4*blocks*k], bounds[:4*blocks]
	b, mask, sums[0], sums[1], sums[2], sums[3] = blocksI8SSE2(unsafe.SliceData(xq), unsafe.SliceData(rows),
		unsafe.SliceData(scales), unsafe.SliceData(bounds), k, blocks, xs, qnorm, thr)
	return
}

//go:noescape
func blocksI8SSE2(xq, rows *int8, scales, bounds *float32, k, blocks int, xs, qnorm, thr float64) (b, mask int, s0, s1, s2, s3 int32)
