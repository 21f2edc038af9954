//go:build amd64 && !amd64.v3 && !purego

package linalg

import "unsafe"

// axpy32 is axpy32Portable on SSE2 (same binding rule as wide_amd64.go);
// SliceData because out may be empty.
func axpy32(w float32, f, out []float32) {
	f = f[:len(out)]
	axpy32SSE2(w, unsafe.SliceData(f), unsafe.SliceData(out), len(out))
}

// axpy32SSE2 is axpy32Portable for any n ≥ 0; it loads from neither pointer
// when n is 0.
//
//go:noescape
func axpy32SSE2(w float32, f, out *float32, n int)
