//go:build amd64 && !amd64.v3 && !purego

package linalg

// screen8 is screen8Portable on SSE2 (same binding rule as wide_amd64.go).
// The kernel takes components four at a time, so a k that is not a multiple
// of 4 goes to the portable body; the slice expression checks the last
// row's bounds, and with it every row's.
func screen8(x, rows []float32, stride int, cut float32) uint32 {
	k := len(x)
	if !screenVectorized(k) {
		return screen8Portable(x, rows, stride, cut)
	}
	_ = rows[7*stride:][:k]
	return screen8F32SSE2(&x[0], &rows[0], stride, k, cut)
}

// screenVectorized: the kernel takes k a positive multiple of 4.
func screenVectorized(k int) bool { return k > 0 && k%4 == 0 }

// screen8F32SSE2 is screen8Portable for k a positive multiple of 4.
//
//go:noescape
func screen8F32SSE2(x, rows *float32, stride, k int, cut float32) uint32
