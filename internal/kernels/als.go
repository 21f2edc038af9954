package kernels

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/linalg"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/variant"
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

// hostConfig is the internal/host configuration whose row kernel computes
// this run's factors: the gram, gather and solve forms the spec names, the
// flat baseline's plain ones. Staging (S1Local/S2Local) and the S3 form
// move cycles only, never a bit of the result, so they have no host side.
func (c Config) hostConfig() host.Config {
	return host.Config{
		K: c.K, Lambda: c.Lambda, Flat: c.Spec.Flat,
		Variant: variant.Options{Register: c.Spec.S1Register, Vector: c.Spec.Vector, Fused: c.Spec.Fused},
	}
}

// Result is a simulated training run: the simulated execution-time report
// and, from Train, the factors.
type Result struct {
	X, Y *linalg.Dense // nil from Estimate
	// Report accumulates all update launches across iterations.
	Report sim.Report
	// TransferSeconds is the one-time PCIe placement cost (GPU/MIC).
	TransferSeconds float64
}

// Seconds is the simulated end-to-end factorization time: kernel makespan
// plus the initial transfer.
func (r *Result) Seconds() float64 { return r.Report.Seconds + r.TransferSeconds }

// Estimate is the cost pass of a run: the Result Train returns, without the
// factors. Simulated time depends on the sparsity pattern alone, so each
// side is tallied once and charged every iteration.
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

// Train runs the full ALS loop (Algorithm 1) for the simulated device:
// Estimate's report carries the modeled device time, and the factors are
// internal/host's, computed with the spec's variant (hostConfig) — the
// simulator changes the clock, never the arithmetic.
func Train(mx *sparse.Matrix, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	res, err := Estimate(mx, cfg)
	if err != nil {
		return nil, err
	}
	if res.X, res.Y, err = factorize(mx, cfg, 1); err != nil {
		return nil, err
	}
	return res, nil
}

// factorize is the arithmetic of a run: ALS on one borrowed host worker
// pool, each half computed as `shards` contiguous row ranges (one per
// device). Row updates are independent, so the factors do not depend on
// shards.
func factorize(mx *sparse.Matrix, cfg Config, shards int) (x, y *linalg.Dense, err error) {
	ru, err := host.NewRangeUpdater(cfg.hostConfig())
	if err != nil {
		return nil, nil, err
	}
	defer ru.Close()
	x = linalg.NewDense(mx.Rows(), cfg.K)
	y = host.InitialY(mx.Cols(), cfg.K, cfg.Seed)
	sides := [2]struct {
		name       string
		r          *sparse.CSR
		fixed, out *linalg.Dense
	}{{"X", mx.R, y, x}, {"Y", mx.RT(), x, y}}
	for it := 1; it <= cfg.Iterations; it++ {
		for _, s := range sides {
			for i := 0; i < shards; i++ {
				lo, hi := shard(s.r.NumRows, shards, i)
				if err := ru.UpdateRange(s.r, s.fixed, s.out, lo, hi, it, s.name == "X"); err != nil {
					return nil, nil, fmt.Errorf("kernels: iteration %d update %s: %w", it, s.name, err)
				}
			}
		}
	}
	return x, y, nil
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
