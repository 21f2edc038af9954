package linalg

import "math"

// Screen8 scores eight consecutive rows (stride float32 apart, the first at
// rows[0]) against x in float32 and compares each against cut: bit r of the
// result is set unless row r's screen value is < cut, so a NaN value — and
// any value against a NaN cut — sets its bit. The value is an approximate
// dot, four products per lane: lane m sums the float32 products x_j·row_j
// for j ≡ m (mod 4) in j order, and the row's value is (l0 + l2) + (l1 + l3).
// It is the serving scan's screen (metrics.ScanTopK): a caller that knows a
// bound on |value − Dot(x, row)| uses it to skip the exact score of rows
// that cannot reach a threshold. SSE2 where the build has it (wide.go), the
// portable body elsewhere and for a len(x) that is not a multiple of 4; the
// two give the same value bit for bit.
func Screen8(x, rows []float32, stride int, cut float32) uint32 {
	return screen8(x, rows, stride, cut)
}

// ScreenVectorized reports whether Screen8 runs a vector kernel at width k
// in this build: SSE2 for k a positive multiple of 4 (wide.go). Only then
// is screening a block cheaper than scoring it exactly — the portable body
// is scalar float32 and loses to Dot8Wide in every build — so the serving
// scan screens only where this holds.
func ScreenVectorized(k int) bool { return screenVectorized(k) }

// screen8Values is the screen's arithmetic: each row's value in the
// kernel's order. The explicit float32 conversion of each product keeps
// the compiler from fusing it into the add, on every architecture.
func screen8Values(x, rows []float32, stride int) (v [8]float32) {
	for r := range v {
		row := rows[r*stride:][:len(x)]
		var l [4]float32
		for j, xv := range x {
			l[j&3] += float32(xv * row[j])
		}
		v[r] = (l[0] + l[2]) + (l[1] + l[3])
	}
	return v
}

// screen8Portable is Screen8's portable body.
func screen8Portable(x, rows []float32, stride int, cut float32) uint32 {
	var mask uint32
	for r, v := range screen8Values(x, rows, stride) {
		if !(v < cut) {
			mask |= 1 << r
		}
	}
	return mask
}

// MaxRowNorm returns max_i ‖row i‖₂ over d's rows, accumulated in float64
// (0 for no rows). A row holding a NaN makes it NaN and one holding an Inf
// (with no NaN) +Inf, so a caller can test for a usable bound with a single
// finiteness check.
func MaxRowNorm(d *Dense) float64 {
	var m float64
	for i := 0; i < d.Rows; i++ {
		m = max(m, Nrm2Sq(d.Row(i))) // the builtin keeps a NaN
	}
	return math.Sqrt(m)
}
