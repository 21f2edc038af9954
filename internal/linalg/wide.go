package linalg

// This file holds the portable bodies of the two float64 kernels the CG
// matvec runs, and says which loops of this package have a vector form and
// why the others do not.
//
// A pinned floating-point order decides whether a loop is lane-shaped.
// DotWide's order IS four strided chains s0..s3 reduced as (s0+s1)+(s2+s3):
// two SSE2 registers of two float64 lanes hold them, lane for lane, and a
// packed multiply and a packed add round each lane exactly as the scalar
// pair does; so do four lanes of one AVX register, which is how the CG
// matvec runs them. The rank-1 scatter out[i] += wd·f[i] and the Gram update
// g[i][j] += f[i]·f[j] are vertical — no reduction, every element its own
// chain — and so are the explicit row update's two hot statements and
// ConfRHS's. A sequential chain per row is lane-shaped too once the lanes
// are rows: Dot8Wide holds two rows' chains in one register. The serving
// scan's screen has no order to keep: its dots are exact int32 sums of
// int16 products, so any lane split gives the same bits, and a bound, not
// identity with Dot, is what its caller relies on. Eight loops, then, have
// a vector form:
//
//	gemvWide     CG matvec, G·p rows (AVX)           wide_amd64.s    this file
//	rank1Wide    CG matvec, one rank-1 term (AVX)    wide_amd64.s    this file
//	gramTile     SharedGram, a band's 4 × 4 tiles    gram_amd64.s    conf.go
//	fusedBlock4  GramRHSFusedUnrolled, S1+S2         fused_amd64.s   fused.go
//	cholSweep    CholeskyPacked, S3 row strip        packed_amd64.s  packed.go
//	axpy32       ConfRHS, svec += w·f                conf_amd64.s    conf.go
//	dot8Wide     serving scan, 8 exact rows per call dot8_amd64.s    syrk.go
//	screen8      serving scan, int16 screen, a run   screen_amd64.s  screen.go
//	             of 8-row blocks per call
//
// Dot, Dot4Wide and Dot1Wide (one row, or the scan's 4- and 1-row tails),
// and the substitutions of SolveCholeskyPacked and LDLSolvePacked are the
// opposite: one sequential chain per output and no second output beside it
// worth a lane, so they stay scalar (so do LDLSolvePacked's factor loops,
// and the two- and one-nonzero remainders of the fused sweep, which are
// cold).
//
// All eight are bound by build constraint (*_amd64.go / wide_portable.go /
// screen_portable.go), plus one CPUID bit for the CG matvec: the seven float
// kernels are assembly on amd64 below GOAMD64=v3, the portable bodies
// everywhere else and under -tags purego. Five are SSE2, the amd64 baseline;
// gemvWide and rank1Wide are 256-bit AVX, which is not, so a probe at
// package init (wide_amd64.go: hasAVX) sends them to the portable bodies on
// a CPU without it. That AVX is VEX-encoded with no FMA: it rounds every
// lane as SSE2 and the Go loops do. At v3 the Go compiler fuses x*y+z into
// an FMA, so only below v3 are the bindings bit for bit the same in every
// build — which is the contract: every model and checkpoint is
// byte-identical whichever binding trained it, and every served score
// whichever binding scanned. (A NaN's payload may follow operand order; no caller can see one
// — CGSolve turns any NaN into ErrCGBreakdown, the packed Cholesky rejects a
// NaN pivot, and no heap compare reads a payload.) DotWide itself never
// takes the assembly: it is the independent oracle the kernel tests compare
// against. The integer screen has nothing to fuse, so it stays assembly at
// v3 too (screen_amd64.go: amd64 && !purego). DESIGN.md "Vector kernels"
// tables lane shapes and tests.

// KernelName names the binding of this build's seven float vector kernels
// (the table above: the CG matvec and shared Gram, the explicit fused sweep
// and packed Cholesky, ConfRHS, and the serving scan's Dot8Wide) on this
// CPU: "avx" on amd64 below GOAMD64=v3 when the CG matvec runs AVX (the
// other five stay SSE2), "sse2" there on a CPU without AVX (the matvec runs
// the portable bodies), "portable" elsewhere and under -tags purego. Dot,
// Dot4Wide, Dot1Wide, SolveCholeskyPacked and LDLSolvePacked are the same
// scalar Go in all three. The screen is bound apart, and ScreenKernelName names
// its binding: at GOAMD64=v3 it is assembly while Dot8Wide is portable.
func KernelName() string { return kernelName() }

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
