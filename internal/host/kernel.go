package host

import (
	"fmt"
	"time"

	"repro/internal/guard"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/variant"
)

// attempt names the optional matrix-free first try at a row: it never
// assembles the k×k system, and a failure falls through to the assembled
// solve every other row runs.
type attempt uint8

const (
	attemptNone  attempt = iota
	attemptCG            // warm-started conjugate gradient (Solver == SolverCG)
	attemptBlock         // one iALS++ block-coordinate sweep (BlockSize < K)
)

// rowKernel is the row update chosen once per run from Config — the paper
// picks its code variant once per (architecture, dataset), and so does the
// worker pool. It fixes three orthogonal choices and one option:
//
//   - gather:   read the fixed factor in place, or stage the row's slice of
//     it into a dense per-worker buffer first (Local);
//   - assemble: split kernels into the dense k×k scratch (S1 scatter /
//     register / unrolled, then S2 plain / unrolled), or one fused sweep
//     into the packed triangle — explicit (plain / unrolled) or
//     confidence-weighted on top of the shared FᵀF (plain / unrolled);
//   - solve:    Cholesky or LDLᵀ, on whichever storage assemble filled;
//   - attempt:  CG or a block sweep before any of that. Their fall-through
//     is cold, so it always assembles with the plain packed kernel.
//
// A kernel is immutable after construction and shared by every worker; all
// mutable state lives in the workerState.
type rowKernel struct {
	k             int
	lambda, alpha float32
	weighted      bool
	guard         *guard.Guard

	staged bool
	// Exactly one of the three assemblies is live: conf (implicit), fused
	// (explicit packed) or the split pair gram+rhs with gram nil meaning the
	// scatter kernel, which needs the worker's private accumulator.
	conf  func(src []float32, k int, cols []int32, vals []float32, alpha float32, base, packed, svec, cf []float32)
	fused func(y []float32, k int, cols []int32, vals, packed, svec []float32)
	split bool
	gram  func(y []float32, k int, cols []int32, smat []float32)
	// rhs is the explicit S2 alone — the split assembly's second sweep, and
	// the right-hand side explicit CG iterates against; nil when neither
	// runs. Implicit attempts call linalg.ConfRHS with alpha instead.
	rhs func(y []float32, k int, cols []int32, vals, svec []float32)
	ldl bool

	attempt attempt
	cgIters int
	block   int
}

func newRowKernel(cfg *Config) *rowKernel {
	v := cfg.Variant
	if cfg.Flat {
		v = variant.Options{} // the baseline runs the plain kernels unstaged
	}
	kn := &rowKernel{
		k:        cfg.K,
		lambda:   cfg.Lambda,
		alpha:    cfg.Alpha,
		weighted: cfg.WeightedLambda,
		guard:    cfg.Guard,
		staged:   v.Local,
		ldl:      cfg.Solver == SolverLDL,
		cgIters:  cfg.CGIters,
		block:    cfg.BlockSize,
	}
	switch {
	case cfg.Implicit && cfg.BlockSize > 0 && cfg.BlockSize < cfg.K:
		kn.attempt = attemptBlock
	case cfg.Solver == SolverCG:
		kn.attempt = attemptCG
	}
	unrolled := v.Vector && kn.attempt == attemptNone
	switch {
	case cfg.Implicit:
		kn.conf = linalg.ConfGramRHSFused
		if unrolled {
			kn.conf = linalg.ConfGramRHSFusedUnrolled
		}
	case v.Fused || kn.attempt != attemptNone:
		kn.fused = linalg.GramRHSFused
		if unrolled {
			kn.fused = linalg.GramRHSFusedUnrolled
		}
	default:
		kn.split = true
		switch {
		case v.Vector:
			kn.gram = linalg.GramUnrolled
		case v.Register:
			kn.gram = linalg.GramRegister
		}
	}
	if !cfg.Implicit && (kn.split || kn.attempt == attemptCG) {
		kn.rhs = linalg.GatherGaxpy
		if v.Vector {
			kn.rhs = linalg.GatherGaxpyUnrolled
		}
	}
	return kn
}

// rowInput is one row's operands after gathering: where the fixed-factor
// rows live (the factor matrix itself, or the worker's staged copy with
// cols renumbered 0..|Ω|), the ratings, the effective ridge, and the chaos
// harness's Gram fault for this row.
type rowInput struct {
	src       []float32
	cols      []int32
	vals      []float32
	lam       float32
	gram      *linalg.SharedGram // implicit mode's FᵀF; nil otherwise
	chaosGram bool
	iter, u   int // 1-based full iteration and row, for error reports
}

// workerState is the per-goroutine scratch: the k×k normal matrix (and its
// packed twin for the one-sweep assemblies), the k-vector right-hand side,
// solver scratch, and the staging buffers the "local memory" variant copies
// gathered data into. It lives as long as its worker, so a warmed state
// makes updateRow allocation-free.
type workerState struct {
	smat      *linalg.Dense
	svec      []float32
	gsum      []float32 // GramScatter's private accumulator
	pmat      []float32 // packed upper-triangular Gram
	ldl       []float64 // LDLᵀ scratch
	stageY    []float32 // staged rows of the fixed factor, omega×k
	stageVals []float32
	stageCols []int32

	// Implicit-mode and CG scratch: the confidence-scaled row buffer (4k
	// for the unrolled kernel's four strips), the CG residual/direction/
	// matvec vectors and separate right-hand side, and the iALS++ block
	// system (blkMat is a reusable header over blk — never reallocated, so
	// block solves stay allocation-free).
	cf     []float32
	rhs    []float32
	cgR    []float32
	cgP    []float32
	cgAp   []float32
	blk    []float32
	blkMat linalg.Dense
	delta  []float32
	dots   []float32 // per-nonzero f_z·x dot products, grown per row
	wide   []float64 // a k-vector widened: CG's direction, the objective pass's row
	tile   []float64 // the Gram pass's scratch (linalg.GramScratchLen)

	// timed brackets the stages of updateRow with wall-clock probes,
	// accumulated into stage; set only when Config.Obs or a live Config.Trace
	// watches the run, so the default path carries a single predictable
	// branch per stage.
	timed bool
	t0    time.Time
	stage obs.StageDur
}

func newWorkerState(k int) *workerState {
	return &workerState{
		smat:  linalg.NewDense(k, k),
		svec:  make([]float32, k),
		gsum:  make([]float32, k*k),
		pmat:  make([]float32, linalg.PackedLen(k)),
		ldl:   make([]float64, k),
		cf:    make([]float32, 4*k),
		rhs:   make([]float32, k),
		cgR:   make([]float32, k),
		cgP:   make([]float32, k),
		cgAp:  make([]float32, k),
		blk:   make([]float32, k*k),
		delta: make([]float32, k),
		wide:  make([]float64, k),
		tile:  make([]float64, linalg.GramScratchLen(k)),
	}
}

// grow returns s resized to n elements, reallocating only when a row is wider
// than any this worker has seen; contents are not preserved.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lap charges the wall time since the previous lap to stage s.
func (ws *workerState) lap(s int) {
	if ws.timed {
		now := time.Now()
		ws.stage[s] += now.Sub(ws.t0)
		ws.t0 = now
	}
}

// gatherStaged copies the row's slice of the fixed factor contiguously
// (Fig. 5) and points in at the copy: on the host this is cache blocking —
// one pass of gathered copies, then dense sequential access in S1 and S2.
func (ws *workerState) gatherStaged(in *rowInput, fixed *linalg.Dense, k int) {
	omega := len(in.cols)
	ws.stageY = grow(ws.stageY, omega*k)
	ws.stageVals = grow(ws.stageVals, omega)
	ws.stageCols = grow(ws.stageCols, omega)
	for z, c := range in.cols {
		copy(ws.stageY[z*k:(z+1)*k], fixed.Row(int(c)))
		ws.stageCols[z] = int32(z)
	}
	copy(ws.stageVals, in.vals)
	in.src, in.cols, in.vals = ws.stageY, ws.stageCols, ws.stageVals
}

// updateRow solves one row's normal equations (Algorithm 2 body) and is the
// only place the guard, chaos, timing and recovery scaffold exists. With a
// warmed workerState it performs no allocations (the package tests assert
// zero allocs per row for every variant and mode).
//
// Solver failures (ErrNotSPD, or a chaos-forced failure) go to recoverRow;
// if that gives the row up, its last-good factors stay in place.
func (kn *rowKernel) updateRow(job *halfJob, u int, ws *workerState) error {
	cols, vals := job.r.Row(u)
	xu := job.out.Row(u)
	if len(cols) == 0 {
		clear(xu)
		return nil
	}
	in := rowInput{src: job.fixed.Data, cols: cols, vals: vals, gram: job.gram, iter: job.iter, u: u}
	forced := false
	if g := kn.guard; g != nil && g.Chaos != nil {
		in.chaosGram = g.Chaos.CorruptGram(job.iter, u, job.xHalf)
		forced = g.Chaos.FailSolve(job.iter, u, job.xHalf)
	}
	if kn.staged {
		ws.gatherStaged(&in, job.fixed, kn.k)
	}
	// Regularize: λI (paper) or λ|Ω_u|I (ALS-WR).
	in.lam = kn.lambda
	if kn.weighted {
		in.lam *= float32(len(cols))
	}
	if ws.timed {
		ws.t0 = time.Now()
	}

	// Chaos faults target the assembled system, which the matrix-free
	// attempts never build: injected rows skip straight to it.
	solved := false
	if kn.attempt != attemptNone && !forced && !in.chaosGram {
		if kn.attempt == attemptCG {
			if kn.conf != nil {
				linalg.ConfRHS(in.src, kn.k, in.cols, in.vals, kn.alpha, ws.rhs)
			} else {
				kn.rhs(in.src, kn.k, in.cols, in.vals, ws.rhs)
			}
			ws.lap(obs.StageS2)
			solved = kn.cgSolve(ws, &in, xu)
		} else {
			solved = kn.blockSweep(ws, &in, xu)
			ws.lap(obs.StageS12)
		}
	}
	var err error
	skip := false
	if !solved {
		// A failed attempt's assembly is charged to S3 with its solve, so a
		// CG or block run never reports a stage its happy path lacks.
		kn.assembleGram(ws, &in, 0)
		if kn.split {
			ws.lap(obs.StageS1)
			kn.rhs(in.src, kn.k, in.cols, in.vals, ws.svec)
			ws.lap(obs.StageS2)
		} else if kn.attempt == attemptNone {
			ws.lap(obs.StageS12)
		}
		switch {
		case forced:
			err = guard.ErrForcedFailure
		case kn.ldl:
			err = kn.solveLDL(ws)
		default:
			err = kn.solve(ws)
		}
		if err != nil {
			skip, err = kn.recoverRow(ws, &in, forced, err)
		}
	}
	ws.lap(obs.StageS3)
	if err != nil || skip {
		return err
	}
	copy(xu, ws.svec)
	return nil
}

// assembleGram builds Gram + λI in the worker scratch — plus, for the packed
// one-sweep kernels, the right-hand side. The chaos diagonal zeroing lands
// after λ (making the system exactly singular) but before the recovery
// jitter extra, so the jitter rungs genuinely repair it rather than
// re-assembling a healthy matrix.
func (kn *rowKernel) assembleGram(ws *workerState, in *rowInput, extra float32) {
	k := kn.k
	if kn.split {
		if kn.gram == nil {
			linalg.GramScatter(in.src, k, in.cols, ws.smat.Data, ws.gsum)
		} else {
			kn.gram(in.src, k, in.cols, ws.smat.Data)
		}
		ws.smat.AddDiag(in.lam)
		if in.chaosGram {
			for i := 0; i < k; i++ {
				ws.smat.Data[i*k+i] = 0
			}
		}
		if extra != 0 {
			ws.smat.AddDiag(extra)
		}
		return
	}
	if kn.conf != nil {
		kn.conf(in.src, k, in.cols, in.vals, kn.alpha, in.gram.Packed, ws.pmat, ws.svec, ws.cf)
	} else {
		kn.fused(in.src, k, in.cols, in.vals, ws.pmat, ws.svec)
	}
	linalg.AddDiagPacked(ws.pmat, k, in.lam)
	if in.chaosGram {
		linalg.ZeroDiagPacked(ws.pmat, k)
	}
	if extra != 0 {
		linalg.AddDiagPacked(ws.pmat, k, extra)
	}
}

// assemble rebuilds the whole system for a recovery rung: a rejected but
// completed solve has already overwritten the right-hand side with garbage,
// and every S2 kernel zeroes svec before accumulating.
func (kn *rowKernel) assemble(ws *workerState, in *rowInput, extra float32) {
	kn.assembleGram(ws, in, extra)
	if kn.split {
		kn.rhs(in.src, kn.k, in.cols, in.vals, ws.svec)
	}
}

// solve runs Cholesky on the assembled system, leaving the solution in svec.
func (kn *rowKernel) solve(ws *workerState) error {
	if kn.split {
		return linalg.CholeskySolve(ws.smat, ws.svec)
	}
	return linalg.CholeskySolvePacked(ws.pmat, kn.k, ws.svec)
}

// solveLDL is solve with the square-root-free LDLᵀ factorization.
func (kn *rowKernel) solveLDL(ws *workerState) error {
	if kn.split {
		return linalg.LDLSolve(ws.smat, ws.svec)
	}
	return linalg.LDLSolvePacked(ws.pmat, kn.k, ws.svec, ws.ldl)
}

// recoverRow handles a failed row solve. Without a guard, or in strict
// mode, it preserves the pre-guard behavior: one LDLᵀ retry on the
// re-assembled system for borderline λ = 0 rows (skipped for chaos-forced
// failures), then a hard error — typed as guard.RowError when a guard is
// armed, so strict runs name the failing iteration and row.
//
// With a non-strict guard the row climbs the recovery ladder: ridge jitter
// at 2× then 10× the effective λ (floored for λ = 0 runs, where a multiple
// of zero would jitter nothing), then LDLᵀ on the unjittered system, and
// finally the skip rung (skip=true). Each rung re-assembles the system and
// accepts only a finite solution — LDLᵀ on an indefinite matrix can
// "succeed" with garbage — and only the rung that rescued the row is
// counted. Chaos-forced failures fail every rung and ride to the skip.
// YᵀY is PSD, so YᵀY + λI + εI is SPD for any ε > 0: the jitter rungs
// genuinely rescue rank-deficient rows rather than papering over a logic
// bug. On (false, nil) svec holds a usable solution.
func (kn *rowKernel) recoverRow(ws *workerState, in *rowInput, forced bool, firstErr error) (skip bool, err error) {
	g := kn.guard
	if g == nil || g.Strict {
		if !forced {
			kn.assemble(ws, in, 0)
			if firstErr = kn.solveLDL(ws); firstErr == nil {
				return false, nil
			}
		}
		if g != nil {
			return false, &guard.RowError{Iteration: in.iter, Row: in.u, Omega: len(in.cols), Err: firstErr}
		}
		return false, fmt.Errorf("row %d (omega=%d): %w", in.u, len(in.cols), firstErr)
	}
	if !forced {
		base := in.lam
		if base <= 0 {
			base = guard.MinJitterBase
		}
		for rung, mult := range guard.JitterMultipliers {
			kn.assemble(ws, in, base*mult)
			if kn.solve(ws) == nil && guard.FiniteVec(ws.svec) {
				g.Recovered(guard.RungJitter2 + rung)
				return false, nil
			}
		}
		kn.assemble(ws, in, 0)
		if kn.solveLDL(ws) == nil && guard.FiniteVec(ws.svec) {
			g.Recovered(guard.RungLDL)
			return false, nil
		}
	}
	g.Recovered(guard.RungSkip)
	return true, nil
}
