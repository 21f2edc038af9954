//go:build !amd64 || purego

package quant

const kernelName = "portable"

// dot4I8 is the serving scan's int8 block kernel; this build has no vector
// form of it.
func dot4I8(xq, rows []int8, k int) (s0, s1, s2, s3 int32) {
	return dot4I8Portable(xq, rows, k)
}
