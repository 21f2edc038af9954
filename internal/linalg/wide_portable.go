//go:build !amd64 || amd64.v3 || purego

package linalg

func kernelName() string { return "portable" }

// This build has no vector form of the seven float kernels: the names are
// the portable bodies.

func gemvWide(g, w []float64, lam float64, out []float32) { gemvWidePortable(g, w, lam, out) }

func rank1Wide(f []float32, w []float64, wt float64, out []float32) {
	rank1WidePortable(f, w, wt, out)
}

func gramTile(f []float32, k int, g []float64, b int, scratch []float64) {
	gramTilePortable(f, k, g, b, scratch)
}

func fusedBlock4(r1, r2, r3, r4, v, packed, svec []float32) {
	fusedBlock4Portable(r1, r2, r3, r4, v, packed, svec)
}

func cholSweep(p []float32, k, j int, acc []float64) { cholSweepPortable(p, k, j, acc) }

func axpy32(w float32, f, out []float32) { axpy32Portable(w, f, out) }

func dot8Wide(xw []float64, rows []float32, stride int, out *[8]float64) {
	dot8WidePortable(xw, rows, stride, out)
}
