package linalg

// This file holds the portable bodies of the three float64 kernels the CG
// matvec and the shared Gram run, and says why they — and not the other
// wide loops — have a vector form.
//
// A pinned floating-point order decides whether a loop is lane-shaped.
// DotWide's order IS four strided chains s0..s3 reduced as (s0+s1)+(s2+s3):
// two SSE2 registers of two float64 lanes hold them, lane for lane, and a
// packed multiply and a packed add round each lane exactly as the scalar
// pair does. The rank-1 scatter out[i] += wd·f[i] and the Gram update
// gi[j] += fi·fj are vertical — no reduction, every element its own chain.
// Dot4Wide and Dot are the opposite: one sequential chain per row, so lanes
// would have to reorder the sum to be of any use, and they stay scalar.
//
// gemvWide, rank1Wide and axpyWide are bound by build constraint alone
// (wide_amd64.go / wide_portable.go): SSE2 assembly on amd64 below
// GOAMD64=v3, these bodies everywhere else and under -tags purego. At v3 the
// Go compiler fuses x*y+z into an FMA, so only below v3 are the two bindings
// bit for bit the same in every build — which is the contract: every model
// and checkpoint is byte-identical whichever binding trained it. (A NaN's
// payload may follow operand order; no caller can see one — CGSolve turns
// any NaN into ErrCGBreakdown.) DotWide itself never takes the assembly: it
// is the independent oracle the kernel tests compare against.

// KernelName names the binding of the CG matvec and shared-Gram kernels in
// this build: "sse2" on amd64 below GOAMD64=v3, "portable" elsewhere and
// under -tags purego.
func KernelName() string { return kernelName }

// gemvWidePortable computes out[i] = float32(lam·w[i] + g[i·k:i·k+k]·w) for
// the k = len(w) rows of the widened Gram g, each dot in DotWide's order.
func gemvWidePortable(g, w []float64, lam float64, out []float32) {
	k := len(w)
	for i := range out[:k] {
		out[i] = float32(lam*w[i] + DotWide(g[i*k:i*k+k], w))
	}
}

// rank1WidePortable adds one rank-1 term's share of the matvec,
// out += float32(wt·(f·w))·f: the dot in DotWide's order against the widened
// direction, the scatter in float32.
func rank1WidePortable(f []float32, w []float64, wt float64, out []float32) {
	wd := float32(wt * DotWide(f, w))
	out = out[:len(w)]
	for i, fi := range f[:len(w)] {
		out[i] += wd * fi
	}
}

// axpyWidePortable computes y[j] += a·x[j] over len(x) elements.
func axpyWidePortable(a float64, x, y []float64) {
	y = y[:len(x)]
	for j, xj := range x {
		y[j] += a * xj
	}
}
