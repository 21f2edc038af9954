//go:build amd64 && !amd64.v3 && !purego

package linalg

// SSE2 is part of the amd64 baseline (GOAMD64=v1), so the other five float
// kernels need no probe: the build constraint is the whole selection
// (wide.go says why it stops at v3). The CG matvec runs 256 bits wide, and
// AVX is not in the baseline: hasAVX, set once at package init, sends it to
// the assembly on a CPU that has AVX and to the portable bodies on one that
// does not. Both round as DotWide does, so the choice moves no bit.
var hasAVX = avxSupported()

// kernelName is KernelName: "avx" when the CG matvec runs AVX (the other
// five float kernels stay SSE2), "sse2" when it runs the portable bodies.
func kernelName() string {
	if hasAVX {
		return "avx"
	}
	return "sse2"
}

// The assembly checks no bounds and handles whole groups of four only; the
// wrappers make the portable loops' checks and send any k that is not a
// multiple of four to the portable body (DotWide's tail continues chain s0 —
// not worth assembly), so exactly k elements of every operand are touched.

func gemvWide(g, w []float64, lam float64, out []float32) {
	k := len(w)
	if !hasAVX || k == 0 || k%4 != 0 {
		gemvWidePortable(g, w, lam, out)
		return
	}
	_, _ = g[k*k-1], out[k-1]
	gemvWideAVX(&g[0], &w[0], k, lam, &out[0])
}

func rank1Wide(f []float32, w []float64, wt float64, out []float32) {
	k := len(w)
	if !hasAVX || k == 0 || k%4 != 0 {
		rank1WidePortable(f, w, wt, out)
		return
	}
	_, _ = f[k-1], out[k-1]
	rank1WideAVX(&f[0], &w[0], k, wt, &out[0])
}

// gemvWideAVX is gemvWidePortable for k a positive multiple of 4.
//
//go:noescape
func gemvWideAVX(gw, w *float64, k int, lam float64, out *float32)

// rank1WideAVX is rank1WidePortable for k a positive multiple of 4.
//
//go:noescape
func rank1WideAVX(f *float32, w *float64, k int, wt float64, out *float32)

// avxSupported reports whether the CPU has AVX and the OS saves its
// registers.
func avxSupported() bool
