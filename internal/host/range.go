package host

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// RangeUpdater exposes the half-iteration row-update machinery for a
// contiguous row range instead of a whole side: the building block of the
// distributed data-parallel trainer, where each worker process owns one
// static slice of the user (and item) rows and the fixed factor arrives by
// broadcast. The worker pool and per-goroutine scratch persist across
// calls, exactly as they do inside Train, so repeated range updates stay
// allocation-free in steady state.
//
// Row updates are pure functions of (row data, fixed factors, λ, k, mode,
// variant) and rows never read each other's output, so updating a range
// here is bit-identical to the same rows of a full Train half given
// identical fixed factors — the property the distributed trainer's
// bit-identity guarantee rests on.
type RangeUpdater struct {
	k    int
	pool *workerPool
}

// NewRangeUpdater starts a worker pool for range updates. The fields of cfg
// that shape a row update or its schedule are used (K, Lambda,
// WeightedLambda, Workers, Flat, Variant, and the training mode:
// Implicit, Alpha, Solver, CGIters, BlockSize) and validated as Train
// validates them; iteration control, loss tracking, resume factors, hooks,
// guard and observability fields are ignored.
func NewRangeUpdater(cfg Config) (*RangeUpdater, error) {
	cfg.Guard = nil
	cfg.Obs, cfg.Trace = nil, nil
	cfg.setDefaults()
	if err := cfg.validateMode(); err != nil {
		return nil, err
	}
	return &RangeUpdater{k: cfg.K, pool: newWorkerPool(cfg)}, nil
}

// UpdateRange solves rows [lo, hi) of out against fixed, where r is the
// full side matrix (R for the X half, Rᵀ for the Y half). iter is the
// 1-based iteration and xHalf names the half, mirroring Train's calls.
// Rows outside the range are untouched.
func (ru *RangeUpdater) UpdateRange(r *sparse.CSR, fixed, out *linalg.Dense, lo, hi, iter int, xHalf bool) error {
	if lo < 0 || hi > r.NumRows || lo > hi {
		return fmt.Errorf("host: row range [%d,%d) outside matrix with %d rows", lo, hi, r.NumRows)
	}
	if lo == hi {
		return nil
	}
	view := r.RowRange(lo, hi)
	outView := linalg.NewDenseFrom(hi-lo, ru.k, out.Data[lo*ru.k:hi*ru.k])
	// Between calls the factors are the caller's (the fixed one arrives by
	// broadcast): no Gram outlives a call.
	ru.pool.grams[gramIdx(xHalf)].fresh = false
	return ru.pool.runHalf(ru.pool.side(view, fixed, outView, xHalf), iter)
}

// Close releases the worker pool; UpdateRange must not be called after it.
func (ru *RangeUpdater) Close() { ru.pool.close() }
