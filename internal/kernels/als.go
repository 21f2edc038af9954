package kernels

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// Config describes one simulated ALS run. Only the shapes a clock reads
// are here: the factors' values (λ, the initial guess) move no cycle.
type Config struct {
	Device *device.Device
	Spec   Spec

	K          int // latent factor (paper default 10)
	Iterations int // paper times 5 iterations

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

// Result is the clock of a simulated training run.
type Result struct {
	// Report accumulates all update launches across iterations.
	Report sim.Report
	// TransferSeconds is the one-time PCIe placement cost (GPU/MIC).
	TransferSeconds float64
}

// Seconds is the simulated end-to-end factorization time: kernel makespan
// plus the initial transfer.
func (r *Result) Seconds() float64 { return r.Report.Seconds + r.TransferSeconds }

// Estimate is the cost pass of a run: the simulated device time of
// Algorithm 1 on mx. Simulated time depends on the sparsity pattern alone,
// so each side is tallied once and charged every iteration.
func Estimate(mx *sparse.Matrix, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if mx.NNZ() == 0 {
		return nil, fmt.Errorf("kernels: empty rating matrix")
	}
	m, n := mx.Rows(), mx.Cols()
	res := &Result{}
	// One-time placement of R (CSR+CSC), X and Y on the accelerator.
	bytes := int64(mx.NNZ())*16 + int64(m+n+2)*8 + int64((m+n)*cfg.K)*4
	res.TransferSeconds = cfg.Device.TransferSeconds(bytes)

	xHalf, yHalf := sideCost(mx.R, n, cfg), sideCost(mx.RT(), m, cfg)
	for it := 0; it < cfg.Iterations; it++ {
		res.Report.Add(xHalf)
		res.Report.Add(yHalf)
	}
	return res, nil
}

// sideCost is the launch report of one half iteration: the update of the
// rows of r against a fixed factor of fixedRows rows, for a defaulted
// config. It reads row lengths only.
func sideCost(r *sparse.CSR, fixedRows int, cfg Config) *sim.Report {
	if cfg.Spec.Flat {
		return flatCost(r, fixedRows, cfg)
	}
	return batchedCost(r, fixedRows, cfg)
}

// batchedCost launches the thread-batched kernel: one work-group per row
// task, grid-stride over rows (Sec. III-B).
func batchedCost(r *sparse.CSR, fixedRows int, cfg Config) *sim.Report {
	e := newEnv(cfg.Device, cfg.K, cfg.GroupSize, fixedRows)
	kernel := func(task int, acc *sim.Acc) {
		omega := r.RowNNZ(task)
		if omega == 0 {
			return
		}
		chargeStages(acc,
			e.batchedS1(cfg.Spec, omega),
			e.batchedS2(cfg.Spec, omega),
			e.s3(cfg.Spec))
	}
	return sim.Run(sim.Launch{
		Device: cfg.Device, Groups: cfg.Groups, GroupSize: cfg.GroupSize, Tasks: r.NumRows,
	}, kernel)
}

// flatCost launches the SAC'15 baseline: one work-item per row. On the
// GPU, rows are bundled into lock-step warps (a bundle's cost follows its
// longest row); on CPU/MIC the bundles model OpenMP threads processing row
// ranges independently.
func flatCost(r *sparse.CSR, fixedRows int, cfg Config) *sim.Report {
	bundle := cfg.Device.WarpSize
	tasks := (r.NumRows + bundle - 1) / bundle
	e := newEnv(cfg.Device, cfg.K, bundle, fixedRows)
	omegas := make([]int, 0, bundle)
	kernel := func(task int, acc *sim.Acc) {
		lo := task * bundle
		hi := min(lo+bundle, r.NumRows)
		omegas = omegas[:0]
		maxOmega := 0
		for u := lo; u < hi; u++ {
			if omega := r.RowNNZ(u); omega > 0 {
				omegas = append(omegas, omega)
				maxOmega = max(maxOmega, omega)
			}
		}
		if len(omegas) == 0 {
			return
		}
		s1, s2, s3 := e.flatWarp(omegas, maxOmega)
		chargeStages(acc, s1, s2, s3)
	}
	return sim.Run(sim.Launch{
		Device: cfg.Device, Groups: cfg.Groups, GroupSize: bundle, Tasks: tasks,
	}, kernel)
}
