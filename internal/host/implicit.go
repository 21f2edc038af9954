package host

import (
	"fmt"

	"repro/internal/guard"
	"repro/internal/linalg"
)

// Solver selects the per-row S3 strategy.
type Solver uint8

const (
	// SolverCholesky is the default direct solve (packed or dense LLᵀ).
	SolverCholesky Solver = iota
	// SolverLDL forces the square-root-free LDLᵀ factorization that the
	// recovery ladder otherwise keeps as a fallback rung.
	SolverLDL
	// SolverCG solves the normal equations matrix-free with warm-started
	// conjugate gradient (Config.CGIters steps).
	SolverCG
)

// String returns the flag spelling of the solver.
func (s Solver) String() string {
	switch s {
	case SolverCholesky:
		return "chol"
	case SolverLDL:
		return "ldl"
	case SolverCG:
		return "cg"
	}
	return fmt.Sprintf("solver(%d)", uint8(s))
}

// ParseSolver parses the -solver flag values {chol, ldl, cg}.
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "", "chol", "cholesky":
		return SolverCholesky, nil
	case "ldl":
		return SolverLDL, nil
	case "cg":
		return SolverCG, nil
	}
	return 0, fmt.Errorf("host: unknown solver %q (want chol, ldl or cg)", s)
}

// cgSolve runs warm-started conjugate gradient against ws.rhs, implicit
// (A = FᵀF + Σ α·r f fᵀ + λI) or explicit (A = Σ f fᵀ + λI), leaving the
// iterate in svec. The matrix is never assembled; a breakdown or non-finite
// iterate reports false and the row falls through to the assembled system.
func (kn *rowKernel) cgSolve(ws *workerState, in *rowInput, xu []float32) bool {
	copy(ws.svec, xu) // warm start from the row's current factors
	sys := linalg.CGSystem{K: kn.k, Src: in.src, Cols: in.cols, Lam: in.lam, Wide: ws.wide}
	if in.gram != nil {
		sys.GWide = in.gram.Wide
		sys.Vals = in.vals
		sys.Alpha = kn.alpha
	}
	err := linalg.CGSolve(&sys, ws.rhs, ws.svec, kn.cgIters, ws.cgR, ws.cgP, ws.cgAp)
	return err == nil && guard.FiniteVec(ws.svec)
}

// blockSweep performs one iALS++ Gauss-Seidel sweep over b-wide coordinate
// blocks: for each block B it forms the residual r_B = (rhs − A·x)_B from
// the shared Gram base and the incrementally-maintained per-nonzero dot
// products d_z = f_z·x, solves the b×b subsystem A_BB·δ = r_B directly, and
// applies x_B += δ. Per-row cost is k² + |Ω|·k·b + k·b²/6 — linear in b
// where the full solve is quadratic in k. It works in svec, a private copy
// of the row, so a failed sweep (reported false: a block that is not SPD or
// a non-finite update) never publishes a half-updated row.
func (kn *rowKernel) blockSweep(ws *workerState, in *rowInput, xu []float32) bool {
	k, b := kn.k, kn.block
	src, gcols, gvals, lam, gd := in.src, in.cols, in.vals, in.lam, in.gram.Dense
	linalg.ConfRHS(src, k, gcols, gvals, kn.alpha, ws.rhs)
	x := ws.svec[:k]
	copy(x, xu)
	ws.dots = grow(ws.dots, len(gcols))
	for z, c := range gcols {
		f := src[int(c)*k : int(c)*k+k]
		ws.dots[z] = float32(linalg.Dot(f, x))
	}
	for b0 := 0; b0 < k; b0 += b {
		bw := min(b, k-b0)
		// Residual r_B = rhs_B − (A·x)_B with A = G + Σ conf f fᵀ + λI.
		rb := ws.delta[:bw]
		for i := 0; i < bw; i++ {
			row := b0 + i
			s := float64(lam) * float64(x[row])
			gr := gd[row*k : row*k+k]
			for j := 0; j < k; j++ {
				s += float64(gr[j]) * float64(x[j])
			}
			for z, c := range gcols {
				f := src[int(c)*k : int(c)*k+k]
				conf := kn.alpha * gvals[z]
				s += float64(conf) * float64(f[row]) * float64(ws.dots[z])
			}
			rb[i] = ws.rhs[row] - float32(s)
		}
		// A_BB = G_BB + Σ conf f_B f_Bᵀ + λI_B, dense b×b.
		blk := ws.blk[:bw*bw]
		for i := 0; i < bw; i++ {
			gr := gd[(b0+i)*k:]
			for j := 0; j < bw; j++ {
				blk[i*bw+j] = gr[b0+j]
			}
		}
		for z, c := range gcols {
			f := src[int(c)*k : int(c)*k+k]
			conf := kn.alpha * gvals[z]
			for i := 0; i < bw; i++ {
				ci := conf * f[b0+i]
				row := blk[i*bw:]
				for j := 0; j < bw; j++ {
					row[j] += ci * f[b0+j]
				}
			}
		}
		for i := 0; i < bw; i++ {
			blk[i*bw+i] += lam
		}
		ws.blkMat.Rows, ws.blkMat.Cols, ws.blkMat.Data = bw, bw, blk
		if linalg.CholeskySolve(&ws.blkMat, rb) != nil || !guard.FiniteVec(rb) {
			return false
		}
		// Apply δ and maintain the dot products incrementally.
		for i := 0; i < bw; i++ {
			x[b0+i] += rb[i]
		}
		for z, c := range gcols {
			f := src[int(c)*k : int(c)*k+k]
			var s float64
			for i := 0; i < bw; i++ {
				s += float64(f[b0+i]) * float64(rb[i])
			}
			ws.dots[z] += float32(s)
		}
	}
	return true
}
