//go:build amd64 && !purego

package quant

// SSE2 is part of the amd64 baseline (GOAMD64=v1), so this kernel needs no
// CPUID probe and no fallback: the build constraint is the whole selection.
const kernelName = "sse2"

// dot4I8 is the serving scan's int8 block kernel: the assembly takes the
// whole 16-column groups, dot4I8Portable the k mod 16 columns after them
// (and all of a k under 16), and the parts add — integer sums are exact, so
// the split moves no bit. The assembly therefore never loads past a row.
func dot4I8(xq, rows []int8, k int) (s0, s1, s2, s3 int32) {
	n := len(xq)
	groups := n &^ 15
	if groups == 0 {
		return dot4I8Portable(xq, rows, k)
	}
	_ = rows[3*k:][:n] // the assembly checks no bounds; this is the Go loop's check
	s0, s1, s2, s3 = dot4I8SSE2(&xq[0], &rows[0], k, groups)
	if groups < n {
		t0, t1, t2, t3 := dot4I8Portable(xq[groups:], rows[groups:], k)
		s0, s1, s2, s3 = s0+t0, s1+t1, s2+t2, s3+t3
	}
	return
}

// dot4I8SSE2 returns the dots of xq[:n] with the four rows starting at
// rows, rows+k, rows+2k and rows+3k, wrapping in int32 as Go's += does.
// n must be a positive multiple of 16.
//
//go:noescape
func dot4I8SSE2(xq, rows *int8, k, n int) (s0, s1, s2, s3 int32)
