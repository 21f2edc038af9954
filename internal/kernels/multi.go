package kernels

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// This file implements data-parallel multi-device ALS in the style the
// paper's related work attributes to cuMF ("using data parallelism in
// conjunction with model parallelism, minimizing the communication overhead
// between computing units"): user rows are sharded across devices for the
// X update and item rows for the Y update; the fixed factor matrix is
// replicated, so every half-iteration broadcasts it over PCIe and gathers
// the updated shards back. Compute overlaps across devices (the slowest
// shard sets the pace) while transfers serialize on the shared host link —
// which is exactly why small datasets stop scaling.

// MultiResult is a simulated multi-device training run.
type MultiResult struct {
	X, Y *linalg.Dense // nil from EstimateMulti
	// ComputeSeconds is the summed per-iteration makespan of the slowest
	// device; TransferSeconds the serialized PCIe traffic (initial shard
	// placement + per-iteration broadcasts and gathers).
	ComputeSeconds  float64
	TransferSeconds float64
}

// Seconds is the simulated end-to-end time.
func (r *MultiResult) Seconds() float64 { return r.ComputeSeconds + r.TransferSeconds }

// EstimateMulti is the cost pass of a run sharded across the given devices
// (all must share the config's spec/launch parameters; they would typically
// be identical GPUs): the MultiResult TrainMulti returns, without the
// factors.
func EstimateMulti(mx *sparse.Matrix, cfg Config, devices []*device.Device) (*MultiResult, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("kernels: no devices")
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if mx.NNZ() == 0 {
		return nil, fmt.Errorf("kernels: empty rating matrix")
	}
	m, n := mx.Rows(), mx.Cols()
	res := &MultiResult{}

	// Initial placement: each device receives its R shards (both views)
	// once. Approximate each device's share of the nonzeros as uniform.
	perDevNNZ := int64(mx.NNZ()) / int64(len(devices))
	for _, d := range devices {
		res.TransferSeconds += d.TransferSeconds(perDevNNZ * 16)
	}

	factorBytes := func(rows int) int64 { return int64(rows) * int64(cfg.K) * 4 }
	xHalf, yHalf := multiCost(mx.R, n, cfg, devices), multiCost(mx.RT(), m, cfg, devices)
	for it := 0; it < cfg.Iterations; it++ {
		// X update: broadcast Y to every device, compute row shards,
		// gather the X shards back.
		res.ComputeSeconds += xHalf
		for i, d := range devices {
			res.TransferSeconds += d.TransferSeconds(factorBytes(n)) // Y broadcast
			lo, hi := shard(m, len(devices), i)
			res.TransferSeconds += d.TransferSeconds(factorBytes(hi - lo)) // X gather
		}
		// Y update, symmetric.
		res.ComputeSeconds += yHalf
		for i, d := range devices {
			res.TransferSeconds += d.TransferSeconds(factorBytes(m))
			lo, hi := shard(n, len(devices), i)
			res.TransferSeconds += d.TransferSeconds(factorBytes(hi - lo))
		}
	}
	return res, nil
}

// TrainMulti runs ALS sharded across the given devices. The factors it
// produces are identical to a single-device run — sharding only changes
// where rows are computed.
func TrainMulti(mx *sparse.Matrix, cfg Config, devices []*device.Device) (*MultiResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	res, err := EstimateMulti(mx, cfg, devices)
	if err != nil {
		return nil, err
	}
	if res.X, res.Y, err = factorize(mx, cfg, len(devices)); err != nil {
		return nil, err
	}
	return res, nil
}

// shard returns device i's contiguous row range out of total rows.
func shard(rows, devices, i int) (lo, hi int) {
	lo = i * rows / devices
	hi = (i + 1) * rows / devices
	return
}

// multiCost is one half-iteration's compute makespan across devices: the
// slowest device's simulated time over its shard of r's rows.
func multiCost(r *sparse.CSR, fixedRows int, cfg Config, devices []*device.Device) float64 {
	var slowest float64
	for i, d := range devices {
		lo, hi := shard(r.NumRows, len(devices), i)
		if lo == hi {
			continue
		}
		cfg.Device = d
		slowest = max(slowest, sideCost(r.RowRange(lo, hi), fixedRows, cfg).Seconds)
	}
	return slowest
}
