// Package baseline implements the two systems the paper compares against:
//
//   - SAC'15 (Rodrigues et al.): the flat one-thread-per-row ALS whose
//     OpenMP and CUDA forms the paper uses as its baseline (Fig. 1, Fig. 7).
//     These are thin wrappers over the flat kernel spec in internal/kernels
//     and the flat scheduling mode of internal/host.
//
//   - HPDC'16 (cuMF, Tan et al.): a CUDA matrix-factorization library built
//     from generic batched sparse primitives (cusparseScsrmm2,
//     cublasSgeam) and batched factorizations. The paper attributes its win
//     over cuMF at k=10 to cuMF being "specially tuned for the k = 100
//     case" and composed of generic library kernels rather than per-step
//     customized ones. The model here reproduces exactly those causes: tile
//     padding of k up to the library's tile width, generic (non-fused)
//     passes over the data, and fixed per-launch library overhead that
//     dominates on small datasets such as YahooMusic R4 (where the paper
//     measures its largest speedup, 6.8×).
package baseline

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// SAC15Sim runs the flat baseline kernel on a simulated device (the CUDA
// baseline when dev is the K20c; the OpenMP baseline when dev is the CPU).
func SAC15Sim(mx *sparse.Matrix, dev *device.Device, k int, lambda float32, iters int, seed int64) (*kernels.Result, error) {
	return kernels.Train(mx, kernels.Config{
		Device: dev, Spec: kernels.Baseline(),
		K: k, Lambda: lambda, Iterations: iters, Seed: seed,
	})
}

// SAC15Host runs the flat baseline as real goroutine-parallel host code.
func SAC15Host(mx *sparse.Matrix, k int, lambda float32, iters int, seed int64) (*host.Result, error) {
	return host.Train(mx, host.Config{K: k, Lambda: lambda, Iterations: iters, Seed: seed, Flat: true})
}

// CuMF models the HPDC'16 library on a simulated GPU.
type CuMFConfig struct {
	Device     *device.Device // must be a GPU
	K          int
	Lambda     float32
	Iterations int
	Seed       int64
}

// cuMF model constants (HPDC'16 structure).
const (
	// cumfTileK is the tile width the library's batched kernels pad the
	// latent dimension to; cuMF's kernels are tuned for k = 100 and issue
	// full tiles regardless of the requested k.
	cumfTileK = 32
	// cumfLaunchesPerUpdate counts the library calls one factor update
	// makes (csrmm, geam, batched factor, batched solve, transposes...).
	cumfLaunchesPerUpdate = 14
	// cumfLaunchOverheadSec is the per-launch driver/runtime cost.
	cumfLaunchOverheadSec = 35e-6
	// cumfGenericPassFactor inflates memory traffic for the non-fused
	// generic pipeline (intermediate matrices written and re-read).
	cumfGenericPassFactor = 2.2
	// cumfBatchedLUCPI: cycles per flop of the batched LU factor+solve.
	cumfBatchedLUCPI = 1.1
)

// EstimateCuMF is the cost pass of a cuMF run: the Result TrainCuMF returns,
// without the factors — the one-time placement of our own kernels plus the
// library cost model above.
func EstimateCuMF(mx *sparse.Matrix, cfg CuMFConfig) (*kernels.Result, error) {
	return cuMF(kernels.Estimate, mx, cfg)
}

// TrainCuMF runs the cuMF-style ALS: real arithmetic identical to the other
// solvers (it is the same exact ALS), timed by the library cost model.
func TrainCuMF(mx *sparse.Matrix, cfg CuMFConfig) (*kernels.Result, error) {
	return cuMF(kernels.Train, mx, cfg)
}

// cuMF runs our batched kernel for the placement cost (and, when run is
// kernels.Train, the factors), then replaces its timing report with the
// library's.
func cuMF(run func(*sparse.Matrix, kernels.Config) (*kernels.Result, error), mx *sparse.Matrix, cfg CuMFConfig) (*kernels.Result, error) {
	if cfg.Device == nil || cfg.Device.Kind != device.GPU {
		return nil, fmt.Errorf("baseline: cuMF requires a GPU device")
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 5
	}
	res, err := run(mx, kernels.Config{
		Device: cfg.Device,
		Spec:   kernels.Spec{S1Local: true, S2Local: true, S1Register: true},
		K:      cfg.K, Lambda: cfg.Lambda, Iterations: cfg.Iterations, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res.Report = cuMFReport(mx, cfg)
	return res, nil
}

// cuMFReport estimates cuMF's execution time for the whole run.
func cuMFReport(mx *sparse.Matrix, cfg CuMFConfig) sim.Report {
	d := cfg.Device
	kEff := cfg.K
	if kEff < cumfTileK {
		kEff = cumfTileK // tile padding: lanes beyond k do dead work
	}
	nz := float64(mx.NNZ())
	m := float64(mx.Rows())
	n := float64(mx.Cols())

	var rep sim.Report
	perUpdate := func(rows float64) (s1, s2, s3 device.Counters) {
		// S1+S2 via generic csrmm-style passes: work scales with kEff, and
		// the non-fused pipeline streams intermediates through DRAM.
		steps := nz * float64(kEff) * float64(kEff) / float64(d.WarpSize)
		s1.ALUOps = steps * 0.5
		s1.GlobalTx = nz * float64(kEff) / float64(d.TransactionBytes/4) * cumfGenericPassFactor
		s2.ALUOps = nz * float64(kEff) / float64(d.WarpSize) * cumfGenericPassFactor
		s2.GlobalTx = nz / float64(d.TransactionBytes/4) * cumfGenericPassFactor
		// Batched LU factor+solve (getrfBatched-style, no symmetry, one
		// poorly-occupied block per system): dependence-chained work at
		// ~1 cycle/flop on the padded kEff×kEff tiles.
		kf := float64(kEff)
		s3.Overhead = rows * (kf*kf*kf/3 + kf*kf) * cumfBatchedLUCPI
		s3.GlobalTx = rows * kf * kf / float64(d.TransactionBytes/4)
		return
	}

	cus := float64(d.ComputeUnits)
	addUpdate := func(rows float64) {
		s1, s2, s3 := perUpdate(rows)
		c1, c2, c3 := d.Cycles(s1), d.Cycles(s2), d.Cycles(s3)
		rep.StageCycles[sim.S1] += c1
		rep.StageCycles[sim.S2] += c2
		rep.StageCycles[sim.S3] += c3
		rep.MakespanCycles += (c1 + c2 + c3) / cus
		rep.Total.Add(s1)
		rep.Total.Add(s2)
		rep.Total.Add(s3)
	}
	for it := 0; it < cfg.Iterations; it++ {
		addUpdate(m)
		addUpdate(n)
	}
	rep.Seconds = d.Seconds(rep.MakespanCycles)
	// Library launch overhead: fixed cost per call, paid serially.
	rep.Seconds += float64(cfg.Iterations) * 2 * cumfLaunchesPerUpdate * cumfLaunchOverheadSec
	return rep
}
