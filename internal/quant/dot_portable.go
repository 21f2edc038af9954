//go:build !amd64 || purego

package quant

const kernelName = "portable"

// blocksI8 is the ranked int8 scan's kernel; this build has no vector form
// of it.
func blocksI8(xq, rows []int8, scales, bounds []float32, xs, qnorm, thr float64) (b, mask int, sums [4]int32) {
	return blocksI8Portable(xq, rows, scales, bounds, xs, qnorm, thr)
}
