package linalg

// This file implements the fused S1+S2 kernel: one sweep over the gathered
// rows of the fixed factor accumulates the packed Gram matrix
//
//	P = Σ_{z ∈ Ω(u)} y_c(z) · y_c(z)ᵀ   (upper triangle, packed)
//
// and the right-hand side
//
//	svec = Σ_{z ∈ Ω(u)} r(z) · y_c(z)
//
// together. The separate S1/S2 kernels (syrk.go) walk the same gathered
// rows twice — the paper's Algorithm 2 performs the smat and svec loops
// back-to-back — so fusing halves the gather traffic, and the packed
// accumulator removes the k×k mirror copy. Accumulation order over the
// nonzeros matches GramRegister/GatherGaxpy element-for-element, so the
// plain fused form is bit-identical to running the separate kernels.

// GramRHSFused computes the packed Gram matrix and the right-hand side in
// a single pass over the gathered rows. packed (PackedLen(k) floats, upper
// triangle) and svec (k floats) are fully overwritten.
func GramRHSFused(y []float32, k int, cols []int32, vals []float32, packed, svec []float32) {
	packed = packed[:PackedLen(k)]
	for i := range packed {
		packed[i] = 0
	}
	svec = svec[:k]
	for i := range svec {
		svec[i] = 0
	}
	for z, c := range cols {
		row := y[int(c)*k : int(c)*k+k]
		r := vals[z]
		off := 0
		for i := 0; i < k; i++ {
			yi := row[i]
			svec[i] += r * yi
			out := packed[off : off+k-i]
			src := row[i:]
			for j := range out {
				out[j] += yi * src[j]
			}
			off += k - i
		}
	}
}

// GramRHSFusedUnrolled is the optimized form: nonzeros are processed four
// at a time (register blocking over the gather loop), so each packed
// accumulator strip is loaded and stored once per four rank-1 updates, and
// the contiguous inner loops expose independent multiply-adds the way the
// paper's explicit vectorization does. Blocking changes the float32
// summation order (the block's terms are grouped before accumulation),
// which stays within the variant-equivalence tolerance. A block of four is
// one fusedBlock4 call — SSE2 on amd64, fusedBlock4Portable elsewhere, bit
// for bit the same (wide.go); the two- and one-nonzero remainders are the
// loops below in every build.
func GramRHSFusedUnrolled(y []float32, k int, cols []int32, vals []float32, packed, svec []float32) {
	packed = packed[:PackedLen(k)]
	for i := range packed {
		packed[i] = 0
	}
	svec = svec[:k]
	for i := range svec {
		svec[i] = 0
	}
	z := 0
	for ; z+4 <= len(cols); z += 4 {
		r1 := y[int(cols[z])*k : int(cols[z])*k+k]
		r2 := y[int(cols[z+1])*k : int(cols[z+1])*k+k]
		r3 := y[int(cols[z+2])*k : int(cols[z+2])*k+k]
		r4 := y[int(cols[z+3])*k : int(cols[z+3])*k+k]
		fusedBlock4(r1, r2, r3, r4, vals[z:z+4], packed, svec)
	}
	for ; z+2 <= len(cols); z += 2 {
		r1 := y[int(cols[z])*k : int(cols[z])*k+k]
		r2 := y[int(cols[z+1])*k : int(cols[z+1])*k+k]
		v1, v2 := vals[z], vals[z+1]
		off := 0
		for i := 0; i < k; i++ {
			y1, y2 := r1[i], r2[i]
			svec[i] += v1*y1 + v2*y2
			out := packed[off : off+k-i]
			a := r1[i:][:len(out)]
			b := r2[i:][:len(out)]
			for j := range out {
				out[j] += y1*a[j] + y2*b[j]
			}
			off += k - i
		}
	}
	for ; z < len(cols); z++ {
		row := y[int(cols[z])*k : int(cols[z])*k+k]
		r := vals[z]
		off := 0
		for i := 0; i < k; i++ {
			yi := row[i]
			svec[i] += r * yi
			out := packed[off : off+k-i]
			src := row[i:][:len(out)]
			for j := range out {
				out[j] += yi * src[j]
			}
			off += k - i
		}
	}
}

// fusedBlock4Portable adds four nonzeros' rank-1 terms to the packed Gram
// and their share of the right-hand side: k = len(svec), r1..r4 the four
// gathered rows, v their four ratings. Per row i of the triangle the strip
// statement is vertical — out[j] gets ((y1·a[j] + y2·b[j]) + y3·c[j]) +
// y4·d[j], every element its own chain — which is what lets SSE2 lanes
// repeat it operation for operation.
func fusedBlock4Portable(r1, r2, r3, r4, v, packed, svec []float32) {
	k := len(svec)
	r1, r2, r3, r4 = r1[:k], r2[:k], r3[:k], r4[:k]
	v1, v2, v3, v4 := v[0], v[1], v[2], v[3]
	off := 0
	for i := 0; i < k; i++ {
		y1, y2, y3, y4 := r1[i], r2[i], r3[i], r4[i]
		svec[i] += v1*y1 + v2*y2 + v3*y3 + v4*y4
		out := packed[off : off+k-i]
		a := r1[i:][:len(out)]
		b := r2[i:][:len(out)]
		c := r3[i:][:len(out)]
		d := r4[i:][:len(out)]
		for j := range out {
			out[j] += y1*a[j] + y2*b[j] + y3*c[j] + y4*d[j]
		}
		off += k - i
	}
}
