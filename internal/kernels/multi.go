package kernels

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sparse"
)

// This file models data-parallel multi-device ALS in the style the
// paper's related work attributes to cuMF ("using data parallelism in
// conjunction with model parallelism, minimizing the communication overhead
// between computing units"): user rows are sharded across devices for the
// X update and item rows for the Y update; the fixed factor matrix is
// replicated, so every half-iteration broadcasts it over PCIe and gathers
// the updated shards back. Compute overlaps across devices (the slowest
// shard sets the pace) while transfers serialize on the shared host link —
// which is exactly why small datasets stop scaling.

// MultiResult is the clock of a simulated multi-device training run.
type MultiResult struct {
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
// be identical GPUs). Row updates are independent, so sharding moves
// compute and adds transfers but would not change a factor.
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
			lo, hi := sparse.Range(m, i, len(devices))
			res.TransferSeconds += d.TransferSeconds(factorBytes(hi - lo)) // X gather
		}
		// Y update, symmetric.
		res.ComputeSeconds += yHalf
		for i, d := range devices {
			res.TransferSeconds += d.TransferSeconds(factorBytes(m))
			lo, hi := sparse.Range(n, i, len(devices))
			res.TransferSeconds += d.TransferSeconds(factorBytes(hi - lo))
		}
	}
	return res, nil
}

// multiCost is one half-iteration's compute makespan across devices: the
// slowest device's simulated time over its shard of r's rows.
func multiCost(r *sparse.CSR, fixedRows int, cfg Config, devices []*device.Device) float64 {
	var slowest float64
	for i, d := range devices {
		lo, hi := sparse.Range(r.NumRows, i, len(devices))
		if lo == hi {
			continue
		}
		cfg.Device = d
		slowest = max(slowest, sideCost(r.RowRange(lo, hi), fixedRows, cfg).Seconds)
	}
	return slowest
}
