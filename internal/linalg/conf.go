package linalg

// This file implements the implicit-feedback (Hu/Koren/Volinsky) counterpart
// of the fused S1+S2 kernel. The per-row normal matrix of implicit ALS is
//
//	smat = FᵀF + Σ_{z ∈ Ω(u)} α·r(z) · f_z f_zᵀ + λI
//	svec = Σ_{z ∈ Ω(u)} (1 + α·r(z)) · f_z
//
// where FᵀF is shared by every row of a half iteration (the Gram trick: the
// dense sum over all items collapses to one precomputed matrix) and each row
// adds only its |Ω| confidence-weighted rank-1 corrections. SharedGram holds
// the precompute; ConfGramRHSFused/Unrolled are the per-row sweeps, shaped
// exactly like fused.go's explicit kernels so they slot into the same packed
// Cholesky S3 and the same worker-pool scheduling.
//
// Bit-identity contract (pinned by the solvers equivalence suite): the
// reference solver in internal/solvers seeds a dense float32 smat from the
// float64 Gram and accumulates corrections row-major, then factors with the
// dense Cholesky, which reads the LOWER triangle — entry (i,j), i>j, holds
// base + Σ_z fl(fl(conf·f_z[i])·f_z[j]). The packed Cholesky reads the UPPER
// triangle, so packed slot (a,b), a≤b, must mirror dense (b,a): its addend
// is fl(fl(conf·f_z[b])·f_z[a]). ConfGramRHSFused therefore precomputes the
// scaled row cf[j] = conf·f_z[j] once per nonzero and accumulates cf[b]·f[a]
// — one addend per nonzero per slot, in nonzero order, the same rounding
// sequence as the reference's lower triangle. Packed and dense Cholesky are
// themselves bit-identical (packed.go), so the fast-path factors match the
// reference float-for-float.

// SharedGram is the FᵀF precompute of one factor for implicit ALS.
// Accumulation is sequential float64 in row order — the same arithmetic as
// the reference solver — so the downstream float32 casts are reproducible
// regardless of worker count. Sequential is per element: entry (i, j) adds
// f_r[i]·f_r[j] one factor row r after another, and the entries are
// independent of each other, so the upper triangle splits by output into
// 4-row bands of 4 × 4 tiles (gramTile, a tile held in registers on amd64 —
// wide.go) with no sum reordered, and the bands into Pieces that any number
// of goroutines may compute. The float64 Gram itself is read only through
// Frob (the training objective, which must match the float64 oracle); the
// float32 projections are what the kernels consume.
type SharedGram struct {
	K int
	// Dense is the k×k float32 projection, both triangles (exactly
	// symmetric). The iALS++ block residuals read it, and so does a CG
	// matvec set up without Wide.
	Dense []float32
	// Wide is Dense widened back to float64, element by element: the same
	// values in the type the CG matvec multiplies in (CGSystem.GWide).
	Wide []float64
	// Packed is the upper-triangle packed projection the fused kernels seed
	// their accumulator from.
	Packed  []float32
	f64     []float64
	scratch []float64 // Compute's GramScratchLen
}

// NewSharedGram allocates the precompute buffers for dimensionality k.
func NewSharedGram(k int) *SharedGram {
	return &SharedGram{
		K:       k,
		Dense:   make([]float32, k*k),
		Wide:    make([]float64, k*k),
		Packed:  make([]float32, PackedLen(k)),
		f64:     make([]float64, k*k),
		scratch: make([]float64, GramScratchLen(k)),
	}
}

// gramBlock is how many factor rows pass a tile between its load and its
// store: the block's float32 rows (16 KB at k = 64) stay in L1 under every
// tile of every band applied to it.
const gramBlock = 64

// GramScratchLen is the float64 scratch ComputePieces needs at dimensionality
// k: a widened factor row (portable), or a block's duplicated band elements
// (gramTileSSE2).
func GramScratchLen(k int) int { return max(k, 8*gramBlock) }

// Pieces is how many independent parts the Gram splits into: its ⌈k/4⌉
// bands paired b with nb−1−b, so that every piece covers the same nb+1
// tiles of the upper triangle (the middle band of an odd count is a piece of
// its own). Which goroutine computes a piece changes no bit of it.
func (g *SharedGram) Pieces() int { return ((g.K+3)/4 + 1) / 2 }

// Compute refills the Gram projections from the fixed factor, every piece on
// the calling goroutine. Cost k²·rows/2 float64 multiply-adds, independent
// of nnz.
func (g *SharedGram) Compute(fixed *Dense) {
	g.ComputePieces(fixed, 0, g.Pieces(), g.scratch)
	g.Finish()
}

// ComputePieces accumulates pieces [lo, hi) of the float64 Gram from the
// fixed factor, overwriting what they held; scratch is GramScratchLen(K)
// float64 of the caller's. Pieces write disjoint rows of the Gram, so
// disjoint ranges may run concurrently; Finish, after all of them, makes the
// result readable. The factor is taken block by block with every band of the
// range applied to a block while it is in L1, so a call reads it from memory
// once however many pieces it covers.
func (g *SharedGram) ComputePieces(fixed *Dense, lo, hi int, scratch []float64) {
	k := g.K
	last := (k+3)/4 - 1
	for p := lo; p < hi; p++ {
		clear(g.f64[4*p*k : min(4*p+4, k)*k])
		clear(g.f64[4*(last-p)*k : min(4*(last-p)+4, k)*k])
	}
	for r0 := 0; r0 < fixed.Rows; r0 += gramBlock {
		f := fixed.Data[r0*k : min(r0+gramBlock, fixed.Rows)*k]
		for p := lo; p < hi; p++ {
			gramTile(f, k, g.f64, p, scratch)
			if q := last - p; q != p {
				gramTile(f, k, g.f64, q, scratch)
			}
		}
	}
}

// gramTilePortable adds the products of the factor rows in f (at most
// gramBlock of them, k wide) to band b of g: element (i, j) += f_r[i]·f_r[j]
// for r ascending, over rows 4b ≤ i < min(4b+4, k) and columns 4b ≤ j < k —
// the band's share of the upper triangle plus the corner under its diagonal
// tile, which Finish overwrites. Each factor row is widened once into
// scratch, not once per (i, j) pair. gramTile is this loop, or its SSE2
// binding with a 4 × 4 tile of g in registers (wide.go).
func gramTilePortable(f []float32, k int, g []float64, b int, scratch []float64) {
	c0 := 4 * b
	fw := scratch[:k-c0]
	for ; len(f) >= k; f = f[k:] {
		for j, v := range f[c0:k] {
			fw[j] = float64(v)
		}
		for i, fi := range fw[:min(4, k-c0)] {
			gi := g[(c0+i)*k+c0 : (c0+i)*k+k]
			for j, fj := range fw {
				gi[j] += fi * fj
			}
		}
	}
}

// Finish mirrors the accumulated upper triangle and refills the float32
// projections (and Wide) from it.
func (g *SharedGram) Finish() {
	k := g.K
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.f64[j*k+i] = g.f64[i*k+j]
		}
	}
	for i, v := range g.f64 {
		g.Dense[i] = float32(v)
		g.Wide[i] = float64(g.Dense[i])
	}
	idx := 0
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			g.Packed[idx] = float32(g.f64[i*k+j])
			idx++
		}
	}
}

// Frob returns the Frobenius product ⟨G, H⟩ = Σᵢⱼ Gᵢⱼ·Hᵢⱼ of two finished
// float64 Grams. With G = SᵀS and H = FᵀF it is Σ over all (row of S, row of
// F) pairs of (s·f)² — the implicit objective's all-items baseline in k²
// multiply-adds, where a pass over the rows of S would spend k² on each.
func (g *SharedGram) Frob(h *SharedGram) float64 { return DotWide(g.f64, h.f64) }

// ConfGramRHSFused seeds the packed accumulator from the shared Gram base
// and sweeps the gathered rows once, accumulating the confidence-weighted
// corrections and the right-hand side together. cf is caller scratch of at
// least k floats (the per-nonzero scaled row); packed and svec are fully
// overwritten. Plain form: per-slot accumulation order matches the reference
// solver exactly (see the file comment), so the result is bit-identical.
func ConfGramRHSFused(src []float32, k int, cols []int32, vals []float32, alpha float32, base, packed, svec, cf []float32) {
	packed = packed[:PackedLen(k)]
	copy(packed, base[:PackedLen(k)])
	svec = svec[:k]
	for i := range svec {
		svec[i] = 0
	}
	cf = cf[:k]
	for z, c := range cols {
		f := src[int(c)*k : int(c)*k+k]
		conf := alpha * vals[z]
		w := 1 + conf
		for j := 0; j < k; j++ {
			cf[j] = conf * f[j]
		}
		off := 0
		for i := 0; i < k; i++ {
			fi := f[i]
			svec[i] += w * fi
			out := packed[off : off+k-i]
			c := cf[i:][:len(out)]
			for j := range out {
				out[j] += c[j] * fi
			}
			off += k - i
		}
	}
}

// ConfGramRHSFusedUnrolled is the vector-variant form: nonzeros are
// processed four at a time so each packed strip is loaded and stored once
// per four rank-1 corrections, exposing independent multiply-adds exactly
// like GramRHSFusedUnrolled. cf is caller scratch of at least 4k floats.
// Blocking groups the four terms before accumulating, which changes float32
// rounding within the variant-equivalence tolerance.
func ConfGramRHSFusedUnrolled(src []float32, k int, cols []int32, vals []float32, alpha float32, base, packed, svec, cf []float32) {
	packed = packed[:PackedLen(k)]
	copy(packed, base[:PackedLen(k)])
	svec = svec[:k]
	for i := range svec {
		svec[i] = 0
	}
	cf = cf[:4*k]
	z := 0
	for ; z+4 <= len(cols); z += 4 {
		f1 := src[int(cols[z])*k : int(cols[z])*k+k]
		f2 := src[int(cols[z+1])*k : int(cols[z+1])*k+k]
		f3 := src[int(cols[z+2])*k : int(cols[z+2])*k+k]
		f4 := src[int(cols[z+3])*k : int(cols[z+3])*k+k]
		c1 := alpha * vals[z]
		c2 := alpha * vals[z+1]
		c3 := alpha * vals[z+2]
		c4 := alpha * vals[z+3]
		w1, w2, w3, w4 := 1+c1, 1+c2, 1+c3, 1+c4
		cf1, cf2, cf3, cf4 := cf[:k], cf[k:2*k], cf[2*k:3*k], cf[3*k:4*k]
		for j := 0; j < k; j++ {
			cf1[j] = c1 * f1[j]
			cf2[j] = c2 * f2[j]
			cf3[j] = c3 * f3[j]
			cf4[j] = c4 * f4[j]
		}
		off := 0
		for i := 0; i < k; i++ {
			y1, y2, y3, y4 := f1[i], f2[i], f3[i], f4[i]
			svec[i] += w1*y1 + w2*y2 + w3*y3 + w4*y4
			out := packed[off : off+k-i]
			a := cf1[i:][:len(out)]
			b := cf2[i:][:len(out)]
			c := cf3[i:][:len(out)]
			d := cf4[i:][:len(out)]
			for j := range out {
				out[j] += a[j]*y1 + b[j]*y2 + c[j]*y3 + d[j]*y4
			}
			off += k - i
		}
	}
	for ; z < len(cols); z++ {
		f := src[int(cols[z])*k : int(cols[z])*k+k]
		conf := alpha * vals[z]
		w := 1 + conf
		cf1 := cf[:k]
		for j := 0; j < k; j++ {
			cf1[j] = conf * f[j]
		}
		off := 0
		for i := 0; i < k; i++ {
			fi := f[i]
			svec[i] += w * fi
			out := packed[off : off+k-i]
			c := cf1[i:][:len(out)]
			for j := range out {
				out[j] += c[j] * fi
			}
			off += k - i
		}
	}
}

// ConfRHS accumulates only the implicit right-hand side
// svec = Σ (1+α·r)·f_z — the CG and iALS++ block paths need the RHS without
// ever forming the corrected Gram. svec is fully overwritten. The
// accumulation order matches ConfGramRHSFused's svec exactly.
func ConfRHS(src []float32, k int, cols []int32, vals []float32, alpha float32, svec []float32) {
	svec = svec[:k]
	for i := range svec {
		svec[i] = 0
	}
	for z, c := range cols {
		f := src[int(c)*k : int(c)*k+k]
		w := 1 + alpha*vals[z]
		axpy32(w, f, svec)
	}
}

// axpy32Portable computes out[i] += w·f[i] over len(out) elements, in
// float32: ConfRHS's inner loop, every element its own chain (axpy32 is its
// SSE2 binding on amd64, wide.go).
func axpy32Portable(w float32, f, out []float32) {
	f = f[:len(out)]
	for i, fi := range f {
		out[i] += w * fi
	}
}
