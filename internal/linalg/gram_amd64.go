//go:build amd64 && !amd64.v3 && !purego

package linalg

// gramTile is gramTilePortable on SSE2 (same binding rule as
// wide_amd64.go). The assembly checks no bounds and handles whole 4 × 4
// tiles of at least one factor row; a k that is not a multiple of four
// takes the portable body for the whole call.
func gramTile(f []float32, k int, g []float64, b int, scratch []float64) {
	rows := len(f) / k
	if k%4 != 0 || rows == 0 {
		gramTilePortable(f, k, g, b, scratch)
		return
	}
	_, _, _ = f[rows*k-1], g[(4*b+4)*k-1], scratch[8*rows-1]
	gramTileSSE2(&f[0], rows, k, &g[0], b, &scratch[0])
}

// gramTileSSE2 is gramTilePortable for k a positive multiple of 4, rows ≥ 1
// and 0 ≤ b < k/4, with 8·rows float64 of scratch at dup.
//
//go:noescape
func gramTileSSE2(f *float32, rows, k int, gm *float64, b int, dup *float64)
