//go:build amd64 && !amd64.v3 && !purego

package linalg

// dot8Wide is dot8WidePortable on SSE2 (same binding rule as wide_amd64.go).
// The kernel takes components in pairs, so an odd k — and k = 0 — goes to
// the portable body; the slice expression checks the last row's bounds, and
// with it every row's, as Dot4Wide's do.
func dot8Wide(xw []float64, rows []float32, stride int, out *[8]float64) {
	k := len(xw)
	if k == 0 || k%2 != 0 {
		dot8WidePortable(xw, rows, stride, out)
		return
	}
	_ = rows[7*stride:][:k]
	dot8F32SSE2(&xw[0], &rows[0], stride, k, out)
}

// dot8F32SSE2 is dot8WidePortable for k a positive even number.
//
//go:noescape
func dot8F32SSE2(xw *float64, rows *float32, stride, k int, out *[8]float64)
