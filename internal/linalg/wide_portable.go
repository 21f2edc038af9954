//go:build !amd64 || amd64.v3 || purego

package linalg

const kernelName = "portable"

// This build has no vector form of the three kernels: the names are the
// portable bodies.

func gemvWide(g, w []float64, lam float64, out []float32) { gemvWidePortable(g, w, lam, out) }

func rank1Wide(f []float32, w []float64, wt float64, out []float32) {
	rank1WidePortable(f, w, wt, out)
}

func axpyWide(a float64, x, y []float64) { axpyWidePortable(a, x, y) }
