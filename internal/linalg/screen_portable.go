//go:build !amd64 || purego

package linalg

const screenKernelName = "portable"

// screen8: this build has no vector form of the screen.
func screen8(xq, rows []int16, cut int32) (b, mask int) { return screen8Portable(xq, rows, cut) }
