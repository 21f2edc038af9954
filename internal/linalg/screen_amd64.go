//go:build amd64 && !purego

package linalg

// SSE2 is the amd64 baseline, so the build constraint is the whole
// selection. Unlike the float kernels (wide_amd64.go) this one stays bound
// at GOAMD64=v3: its sums are exact integers, which no compiler fuses.
const screenKernelName = "sse2"

// screen8 is screen8Portable in SSE2 for k8 a positive multiple of 8 (the
// kernel takes eight components per load; another k8 goes to the portable
// body). It reads the run's whole blocks and nothing past them.
func screen8(xq, rows []int16, cut int32) (b, mask int) {
	k8 := len(xq)
	if k8 == 0 || k8%8 != 0 {
		return screen8Portable(xq, rows, cut)
	}
	blocks := len(rows) / (8 * k8)
	if blocks == 0 {
		return 0, 0
	}
	return screen8I16SSE2(&xq[0], &rows[0], k8, blocks, cut)
}

// screen8I16SSE2 is screen8Portable over blocks whole 8-row blocks, for k8
// a positive multiple of 8.
//
//go:noescape
func screen8I16SSE2(xq, rows *int16, k8, blocks int, cut int32) (b, mask int)
