package host

import (
	"math"
	"runtime"

	"repro/internal/linalg"
	"repro/internal/sparse"
)

// RowUpdateAllocs measures the average heap allocations one steady-state row
// update performs under cfg. The worker scratch is warmed by a full pass over
// the rows first, exactly as a pool worker's scratch is after its first
// chunk — every row has then been seen, so the staging and per-nonzero
// buffers are at capacity. The package tests assert the result is zero for
// every variant and mode. The count comes from runtime.ReadMemStats (the
// same mechanism as testing.AllocsPerRun) so non-test binaries can call
// this without linking the testing framework.
func RowUpdateAllocs(mx *sparse.Matrix, cfg Config) float64 {
	return rowAllocs(mx, cfg, false)
}

// ObjectiveAllocs is RowUpdateAllocs for the objective pass: the average
// heap allocations of one row's share of the objective, on the scratch of a
// worker that has solved the side.
func ObjectiveAllocs(mx *sparse.Matrix, cfg Config) float64 {
	return rowAllocs(mx, cfg, true)
}

func rowAllocs(mx *sparse.Matrix, cfg Config, objective bool) float64 {
	m := mx.Rows()
	cfg.setDefaults()
	kn := newRowKernel(&cfg)
	ws := newWorkerState(cfg.K)
	// A watched run's row update differs from a plain one by the stage
	// timers alone (everything else happens at the half rendezvous).
	ws.timed = cfg.Obs != nil || cfg.liveTrace() != nil
	side := halfSide{
		r:     mx.R,
		fixed: InitialY(mx.Cols(), cfg.K, cfg.Seed),
		out:   linalg.NewDense(m, cfg.K),
		xHalf: true,
	}
	job := &halfJob{halfSide: side, iter: 1}
	if cfg.Implicit {
		job.gram = linalg.NewSharedGram(cfg.K)
		job.gram.Compute(job.fixed)
	}
	for u := 0; u < m; u++ {
		if err := kn.updateRow(job, u, ws); err != nil {
			return -1
		}
	}
	row := func(u int) { _ = kn.updateRow(job, u, ws) }
	if objective {
		job.terms = make([]float64, m)
		row = func(u int) { job.terms[u] = kn.rowObjective(job, u, ws) }
	}
	u := 0
	return allocsPerRun(200, func() {
		row(u)
		u++
		if u == m {
			u = 0
		}
	})
}

// allocsPerRun returns the average number of heap allocations per call to f,
// mirroring testing.AllocsPerRun: the runtime is pinned to one proc so
// background goroutines can't pollute the malloc counters, f runs once to
// warm caches, and the Mallocs delta over runs calls is averaged.
//
// Even pinned, runtime background work (a GC cycle starting inside the
// window) occasionally contributes a malloc or two, so the measurement is
// retried and the minimum taken: code that really allocates per call shows
// up in every attempt, while scheduler noise does not repeat.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	best := math.Inf(1)
	for attempt := 0; attempt < 3 && best != 0; attempt++ {
		runtime.GC() // finish any in-flight GC cycle before the window opens
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		if n := float64(after.Mallocs-before.Mallocs) / float64(runs); n < best {
			best = n
		}
	}
	return best
}
