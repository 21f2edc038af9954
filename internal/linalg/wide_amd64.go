//go:build amd64 && !amd64.v3 && !purego

package linalg

// SSE2 is part of the amd64 baseline (GOAMD64=v1), so these kernels need no
// CPUID probe and no fallback: the build constraint is the whole selection
// (wide.go says why it stops at v3).
const kernelName = "sse2"

// The assembly checks no bounds and handles whole groups of four only; the
// wrappers make the portable loops' checks and send any k that is not a
// multiple of four to the portable body (DotWide's tail continues chain s0 —
// not worth assembly), so exactly k elements of every operand are touched.

func gemvWide(g, w []float64, lam float64, out []float32) {
	k := len(w)
	if k == 0 || k%4 != 0 {
		gemvWidePortable(g, w, lam, out)
		return
	}
	_, _ = g[k*k-1], out[k-1]
	gemvWideSSE2(&g[0], &w[0], k, lam, &out[0])
}

func rank1Wide(f []float32, w []float64, wt float64, out []float32) {
	k := len(w)
	if k == 0 || k%4 != 0 {
		rank1WidePortable(f, w, wt, out)
		return
	}
	_, _ = f[k-1], out[k-1]
	rank1WideSSE2(&f[0], &w[0], k, wt, &out[0])
}

// gemvWideSSE2 is gemvWidePortable for k a positive multiple of 4.
//
//go:noescape
func gemvWideSSE2(gw, w *float64, k int, lam float64, out *float32)

// rank1WideSSE2 is rank1WidePortable for k a positive multiple of 4.
//
//go:noescape
func rank1WideSSE2(f *float32, w *float64, k int, wt float64, out *float32)
