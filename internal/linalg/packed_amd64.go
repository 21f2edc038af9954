//go:build amd64 && !amd64.v3 && !purego

package linalg

// cholSweep is cholSweepPortable on SSE2 (same binding rule as
// wide_amd64.go). The assembly checks no bounds: the wrapper pins the strip
// to k − j elements and checks that the last tail it reads, row j−1's, ends
// inside p — it ends where row j begins.
func cholSweep(p []float32, k, j int, acc []float64) {
	if j == 0 {
		return
	}
	acc = acc[:k-j]
	_ = p[PackedOff(k, j)-1]
	cholSweepSSE2(&p[j], k, j, &acc[0])
}

// cholSweepSSE2 is cholSweepPortable for 0 < j < k; col is &U[0][j] and acc
// holds k − j elements.
//
//go:noescape
func cholSweepSSE2(col *float32, k, j int, acc *float64)
