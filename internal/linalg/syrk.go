package linalg

// This file implements the paper's S1 kernel on the host: the Gram matrix of
// the factor rows selected by one sparse row,
//
//	smat = Σ_{z ∈ Ω(u)} y_c(z) · y_c(z)ᵀ   (+ λI added by the caller)
//
// It is a SYRK-style rank-|Ω| symmetric update over gathered rows of Y.
// Three forms mirror the paper's code variants:
//
//   - GramScatter: the baseline's structure (Fig. 3a) — a k×k private
//     accumulator filled pair-by-pair, iterating the nonzeros innermost.
//   - GramRegister: the register-restructured form (Fig. 3b) — the nonzero
//     loop outermost, a k-sized accumulator strip per output row.
//   - GramUnrolled: GramRegister with the inner pair loop unrolled by 4,
//     the host analogue of the paper's explicit vectorization.

// GramScatter computes smat += Σ y_c·y_cᵀ with the baseline loop nest:
// for each (i,j) output pair, scan all nonzeros. cols lists the selected row
// indices of y (an n×k row-major factor matrix); smat is k×k row-major and
// is fully overwritten (both triangles). sum is the caller-provided k×k
// scratch standing in for the baseline's oversized private buffer — with
// large k this is exactly the structure that spills registers on the
// device; on the host the solver passes its per-worker scratch so the row
// loop stays allocation-free.
func GramScatter(y []float32, k int, cols []int32, smat, sum []float32) {
	sum = sum[:k*k]
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			var s float32
			for _, c := range cols {
				d := int(c) * k
				s += y[d+i] * y[d+j]
			}
			sum[i*k+j] = s
		}
	}
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			v := sum[i*k+j]
			smat[i*k+j] = v
			smat[j*k+i] = v
		}
	}
}

// GramRegister computes the same Gram matrix with the restructured loop of
// Fig. 3b: the gather loop over nonzeros is outermost so each selected row
// of Y is loaded once and contributes a rank-1 update; the live accumulator
// working set per output row is k values, not k×k.
func GramRegister(y []float32, k int, cols []int32, smat []float32) {
	for i := range smat[:k*k] {
		smat[i] = 0
	}
	for _, c := range cols {
		row := y[int(c)*k : int(c)*k+k]
		for i := 0; i < k; i++ {
			yi := row[i]
			out := smat[i*k:]
			for j := i; j < k; j++ {
				out[j] += yi * row[j]
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			smat[j*k+i] = smat[i*k+j]
		}
	}
}

// GramUnrolled is GramRegister with the j-loop unrolled by 4, exposing
// independent multiply-adds the way the paper's float16 OpenCL vectors do.
func GramUnrolled(y []float32, k int, cols []int32, smat []float32) {
	for i := range smat[:k*k] {
		smat[i] = 0
	}
	for _, c := range cols {
		row := y[int(c)*k : int(c)*k+k]
		for i := 0; i < k; i++ {
			yi := row[i]
			out := smat[i*k:]
			j := i
			for ; j+4 <= k; j += 4 {
				out[j] += yi * row[j]
				out[j+1] += yi * row[j+1]
				out[j+2] += yi * row[j+2]
				out[j+3] += yi * row[j+3]
			}
			for ; j < k; j++ {
				out[j] += yi * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			smat[j*k+i] = smat[i*k+j]
		}
	}
}

// GatherGaxpy computes the paper's S2 kernel on the host:
//
//	svec = Σ_{z ∈ Ω(u)} r(z) · y_c(z)
//
// i.e. the k-vector Yᵀ·r_u restricted to the row's nonzeros. svec is fully
// overwritten.
func GatherGaxpy(y []float32, k int, cols []int32, vals []float32, svec []float32) {
	for i := range svec[:k] {
		svec[i] = 0
	}
	for z, c := range cols {
		r := vals[z]
		row := y[int(c)*k : int(c)*k+k]
		for i, v := range row {
			svec[i] += r * v
		}
	}
}

// GatherGaxpyUnrolled is GatherGaxpy with the k-loop unrolled by 4.
func GatherGaxpyUnrolled(y []float32, k int, cols []int32, vals []float32, svec []float32) {
	for i := range svec[:k] {
		svec[i] = 0
	}
	for z, c := range cols {
		r := vals[z]
		row := y[int(c)*k : int(c)*k+k]
		i := 0
		for ; i+4 <= k; i += 4 {
			svec[i] += r * row[i]
			svec[i+1] += r * row[i+1]
			svec[i+2] += r * row[i+2]
			svec[i+3] += r * row[i+3]
		}
		for ; i < k; i++ {
			svec[i] += r * row[i]
		}
	}
}

// Dot returns the float64-accumulated inner product of two float32 vectors;
// it is the prediction primitive r̂_ui = x_u·y_i.
func Dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// DotWide returns Σ a[i]·w[i] over len(w) elements against a vector already
// widened to float64, a being float32 values or themselves widened: a
// float64 a converts nothing inside the loop, a float32 a once per element
// where Dot converts twice. Four independent accumulator chains keep the
// multiply-adds from waiting on each other (the host form of the paper's
// vector restructuring), so the sum is Dot's up to float64 rounding order.
func DotWide[T float32 | float64](a []T, w []float64) float64 {
	a = a[:len(w)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		a4, w4 := a[i:i+4:i+4], w[i:i+4:i+4]
		s0 += float64(a4[0]) * w4[0]
		s1 += float64(a4[1]) * w4[1]
		s2 += float64(a4[2]) * w4[2]
		s3 += float64(a4[3]) * w4[3]
	}
	for ; i < len(w); i++ {
		s0 += float64(a[i]) * w[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot4Wide returns the dots of four consecutive rows (stride apart, the
// first at rows[0]) against a query already widened to float64, over
// len(xw) elements. Each row keeps its own sequential accumulator, so every
// result is bit for bit Dot(x, row): a product of two float32 values is
// exact in float64, which leaves neither the pre-widening nor a fused
// multiply-add a bit to move — only the interleaving across rows differs,
// and that is what lets the four chains hide each other's latency. Strip
// slices pin each row's length to len(xw), eliding inner bounds checks.
func Dot4Wide(xw []float64, rows []float32, stride int) (s0, s1, s2, s3 float64) {
	r0 := rows[:len(xw)]
	r1 := rows[stride:][:len(xw)]
	r2 := rows[2*stride:][:len(xw)]
	r3 := rows[3*stride:][:len(xw)]
	for j, xv := range xw {
		s0 += xv * float64(r0[j])
		s1 += xv * float64(r1[j])
		s2 += xv * float64(r2[j])
		s3 += xv * float64(r3[j])
	}
	return
}

// Dot8Wide is Dot4Wide over eight consecutive rows, into out: every result
// bit for bit Dot(x, row). It is the serving scan's kernel, SSE2 with two
// rows per register where the build has it (wide.go).
func Dot8Wide(xw []float64, rows []float32, stride int, out *[8]float64) {
	dot8Wide(xw, rows, stride, out)
}

// dot8WidePortable is Dot8Wide as two passes of Dot4Wide.
func dot8WidePortable(xw []float64, rows []float32, stride int, out *[8]float64) {
	out[0], out[1], out[2], out[3] = Dot4Wide(xw, rows, stride)
	out[4], out[5], out[6], out[7] = Dot4Wide(xw, rows[4*stride:], stride)
}

// Dot1Wide is Dot4Wide's one-row tail: bit for bit Dot(x, row) as well,
// which DotWide's four-way split of a single row is not.
func Dot1Wide(xw []float64, row []float32) (s float64) {
	row = row[:len(xw)]
	for j, xv := range xw {
		s += xv * float64(row[j])
	}
	return
}

// Axpy computes y += alpha*x element-wise.
func Axpy(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2Sq returns the squared Euclidean norm accumulated in float64, used by
// the regularized-loss invariant tests (λ(|x_u|² + |y_i|²)).
func Nrm2Sq(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}
