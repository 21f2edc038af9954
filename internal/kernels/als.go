package kernels

import (
	"fmt"
	"sync"

	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// Config describes one simulated ALS run.
type Config struct {
	Device *device.Device
	Spec   Spec

	K          int     // latent factor (paper default 10)
	Lambda     float32 // regularization (paper default 0.1)
	Iterations int     // paper times 5 iterations
	Seed       int64

	// Groups×GroupSize is the launch grid; the paper's experiments use
	// 8192×32 (Sec. V). Zero values take those defaults.
	Groups    int
	GroupSize int
}

func (c *Config) setDefaults() error {
	if c.Device == nil {
		return fmt.Errorf("kernels: nil device")
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 5
	}
	if c.Groups <= 0 {
		c.Groups = 8192
	}
	if c.GroupSize <= 0 {
		c.GroupSize = 32
	}
	return nil
}

// Result is a simulated training run: real factors plus the simulated
// execution-time report.
type Result struct {
	X, Y *linalg.Dense
	// Report accumulates all update launches across iterations.
	Report sim.Report
	// TransferSeconds is the one-time PCIe placement cost (GPU/MIC).
	TransferSeconds float64
}

// Seconds is the simulated end-to-end factorization time: kernel makespan
// plus the initial transfer.
func (r *Result) Seconds() float64 { return r.Report.Seconds + r.TransferSeconds }

// Train runs the full ALS loop (Algorithm 1) on the simulated device. The
// arithmetic is real — the returned factors match internal/host's within
// float tolerance — while the Report carries the modeled device time.
func Train(mx *sparse.Matrix, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if mx.NNZ() == 0 {
		return nil, fmt.Errorf("kernels: empty rating matrix")
	}
	m, n := mx.Rows(), mx.Cols()
	x := linalg.NewDense(m, cfg.K)
	y := host.InitialY(n, cfg.K, cfg.Seed)
	rt := mx.RT()

	res := &Result{X: x, Y: y}
	// One-time placement of R (CSR+CSC), X and Y on the accelerator.
	bytes := int64(mx.NNZ())*16 + int64(m+n+2)*8 + int64((m+n)*cfg.K)*4
	res.TransferSeconds = cfg.Device.TransferSeconds(bytes)

	for it := 0; it < cfg.Iterations; it++ {
		rep, err := UpdateSide(mx.R, y, x, cfg)
		if err != nil {
			return nil, fmt.Errorf("kernels: iteration %d update X: %w", it+1, err)
		}
		res.Report.Add(rep)
		rep, err = UpdateSide(rt, x, y, cfg)
		if err != nil {
			return nil, fmt.Errorf("kernels: iteration %d update Y: %w", it+1, err)
		}
		res.Report.Add(rep)
	}
	return res, nil
}

// UpdateSide recomputes out (m×k) from fixed (n×k) over the rows of r on
// the simulated device, returning the launch report.
func UpdateSide(r *sparse.CSR, fixed, out *linalg.Dense, cfg Config) (*sim.Report, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.Spec.Flat {
		return flatUpdate(r, fixed, out, cfg)
	}
	return batchedUpdate(r, fixed, out, cfg)
}

// scratch is the per-group workspace; pooled because sim.Run creates group
// contexts concurrently. gsum backs the baseline scatter kernel's private
// buffer; packed and ldl back the fused/packed S1+S3 path.
type scratch struct {
	smat   *linalg.Dense
	svec   []float32
	gsum   []float32
	packed []float32
	ldl    []float64
}

var scratchPool = sync.Pool{}

func getScratch(k int) *scratch {
	if v := scratchPool.Get(); v != nil {
		s := v.(*scratch)
		if s.smat.Rows == k {
			return s
		}
	}
	return &scratch{smat: linalg.NewDense(k, k), svec: make([]float32, k),
		gsum: make([]float32, k*k), packed: make([]float32, linalg.PackedLen(k)),
		ldl: make([]float64, k)}
}

func putScratch(s *scratch) { scratchPool.Put(s) }

// solveRow performs the real Algorithm 2 body for one row. The Gram kernel
// matches the spec so the arithmetic truly differs per variant (all
// variants are equivalent within float tolerance; the tests verify it).
func solveRow(r *sparse.CSR, fixed, out *linalg.Dense, u int, cfg Config, s *scratch) error {
	cols, vals := r.Row(u)
	xu := out.Row(u)
	if len(cols) == 0 {
		for i := range xu {
			xu[i] = 0
		}
		return nil
	}
	if cfg.Spec.Fused {
		// Fused S1+S2 into packed storage, packed Cholesky S3.
		fused := linalg.GramRHSFused
		if cfg.Spec.Vector {
			fused = linalg.GramRHSFusedUnrolled
		}
		fused(fixed.Data, cfg.K, cols, vals, s.packed, s.svec)
		linalg.AddDiagPacked(s.packed, cfg.K, cfg.Lambda)
		if err := linalg.CholeskySolvePacked(s.packed, cfg.K, s.svec); err != nil {
			fused(fixed.Data, cfg.K, cols, vals, s.packed, s.svec)
			linalg.AddDiagPacked(s.packed, cfg.K, cfg.Lambda)
			if err := linalg.LDLSolvePacked(s.packed, cfg.K, s.svec, s.ldl); err != nil {
				return fmt.Errorf("row %d: %w", u, err)
			}
		}
		copy(xu, s.svec)
		return nil
	}
	gram := func(y []float32, k int, cols []int32, smat []float32) {
		linalg.GramScatter(y, k, cols, smat, s.gsum)
	}
	switch {
	case cfg.Spec.Vector:
		gram = linalg.GramUnrolled
	case cfg.Spec.S1Register:
		gram = linalg.GramRegister
	}
	gram(fixed.Data, cfg.K, cols, s.smat.Data)
	s.smat.AddDiag(cfg.Lambda)
	if cfg.Spec.Vector {
		linalg.GatherGaxpyUnrolled(fixed.Data, cfg.K, cols, vals, s.svec)
	} else {
		linalg.GatherGaxpy(fixed.Data, cfg.K, cols, vals, s.svec)
	}
	if err := linalg.CholeskySolve(s.smat, s.svec); err != nil {
		gram(fixed.Data, cfg.K, cols, s.smat.Data)
		s.smat.AddDiag(cfg.Lambda)
		if err := linalg.LDLSolve(s.smat, s.svec); err != nil {
			return fmt.Errorf("row %d: %w", u, err)
		}
	}
	copy(xu, s.svec)
	return nil
}

// batchedUpdate launches the thread-batched kernel: one work-group per row
// task, grid-stride over rows (Sec. III-B).
func batchedUpdate(r *sparse.CSR, fixed, out *linalg.Dense, cfg Config) (*sim.Report, error) {
	e := newEnv(cfg.Device, cfg.K, cfg.GroupSize, fixed.Rows)
	var firstErr error
	var errMu sync.Mutex
	kernel := func(task int, acc *sim.Acc) {
		s := getScratch(cfg.K)
		defer putScratch(s)
		if err := solveRow(r, fixed, out, task, cfg, s); err != nil {
			errMu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			errMu.Unlock()
			return
		}
		omega := r.RowNNZ(task)
		if omega == 0 {
			return
		}
		chargeStages(acc,
			e.batchedS1(cfg.Spec, omega),
			e.batchedS2(cfg.Spec, omega),
			e.s3(cfg.Spec))
	}
	rep := sim.Run(sim.Launch{
		Device: cfg.Device, Groups: cfg.Groups, GroupSize: cfg.GroupSize, Tasks: r.NumRows,
	}, kernel)
	return rep, firstErr
}

// flatUpdate launches the SAC'15 baseline: one work-item per row. On the
// GPU, rows are bundled into lock-step warps (a bundle's cost follows its
// longest row); on CPU/MIC the bundles model OpenMP threads processing row
// ranges independently.
func flatUpdate(r *sparse.CSR, fixed, out *linalg.Dense, cfg Config) (*sim.Report, error) {
	bundle := cfg.Device.WarpSize
	tasks := (r.NumRows + bundle - 1) / bundle
	e := newEnv(cfg.Device, cfg.K, bundle, fixed.Rows)
	var firstErr error
	var errMu sync.Mutex
	kernel := func(task int, acc *sim.Acc) {
		s := getScratch(cfg.K)
		defer putScratch(s)
		lo := task * bundle
		hi := lo + bundle
		if hi > r.NumRows {
			hi = r.NumRows
		}
		omegas := make([]int, 0, bundle)
		maxOmega := 0
		for u := lo; u < hi; u++ {
			if err := solveRow(r, fixed, out, u, cfg, s); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			omega := r.RowNNZ(u)
			if omega == 0 {
				continue
			}
			omegas = append(omegas, omega)
			if omega > maxOmega {
				maxOmega = omega
			}
		}
		if len(omegas) == 0 {
			return
		}
		s1, s2, s3 := e.flatWarp(omegas, maxOmega)
		chargeStages(acc, s1, s2, s3)
	}
	rep := sim.Run(sim.Launch{
		Device: cfg.Device, Groups: cfg.Groups, GroupSize: bundle, Tasks: tasks,
	}, kernel)
	return rep, firstErr
}
