package serve

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/sparse"
)

// checkEvery is how many rows a shard scores between context checks, so an
// expired deadline aborts a scan over a huge catalog promptly.
const checkEvery = 4096

// minShardRows keeps small catalogs on few workers: below this many rows
// per shard the merge and handoff overhead outweighs the parallelism.
const minShardRows = 256

// scanStackK is the widest query a float32 scan task widens on its own
// stack (linalg's CG matvec draws the same line).
const scanStackK = 128

// Scorer ranks an item catalog against a user factor with a bounded worker
// pool shared by all requests: Y is partitioned into contiguous shards, each
// shard keeps its own size-n min-heap (metrics.TopK), and the per-shard
// heaps are merged. The pool bound — not the request count — caps scoring
// concurrency, so a traffic spike degrades latency instead of oversubscribing
// the machine the training loops also run on.
type Scorer struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
}

// NewScorer starts a pool of workers goroutines (GOMAXPROCS when <= 0).
func NewScorer(workers int) *Scorer {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scorer{workers: workers, tasks: make(chan func())}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for f := range s.tasks {
				f()
			}
		}()
	}
	return s
}

// Workers returns the pool size.
func (s *Scorer) Workers() int { return s.workers }

// Close stops the pool after in-flight shards finish. TopN must not be
// called after Close.
func (s *Scorer) Close() {
	close(s.tasks)
	s.wg.Wait()
}

// TopN returns the n strongest items of y under x·y_i, strongest first,
// skipping items for which excluded returns true (nil excludes nothing),
// and how many rows got an exact score. maxNorm is max‖y_i‖₂
// (linalg.MaxRowNorm, Snapshot.MaxNorm), the bound behind the scan's
// float32 screen; 0 switches the screen off and scores every row. It
// honors ctx: an expired deadline aborts both shard submission and in-shard
// scanning and returns ctx.Err().
func (s *Scorer) TopN(ctx context.Context, x []float32, y *linalg.Dense, maxNorm float64, excluded func(int) bool, n int) ([]metrics.Scored, int, error) {
	if n <= 0 || y == nil || y.Rows == 0 {
		return nil, 0, nil
	}
	shards := s.workers
	if max := (y.Rows + minShardRows - 1) / minShardRows; shards > max {
		shards = max
	}
	per := (y.Rows + shards - 1) / shards

	type result struct {
		t      *metrics.TopK
		err    error
		scored int
	}
	res := make([]result, shards)
	var wg sync.WaitGroup
	var submitErr error
	for si := 0; si < shards; si++ {
		si := si
		lo := si * per
		hi := lo + per
		if hi > y.Rows {
			hi = y.Rows
		}
		job := func() {
			defer wg.Done()
			// The query is prepared once per task: widened on the task's
			// stack up to scanStackK components (a longer one grows onto
			// the heap), so metrics.ScanTopK converts only the item side.
			var stack [scanStackK]float64
			q := metrics.PrepareScan(x, stack[:], maxNorm)
			r := &res[si]
			r.t = metrics.NewTopK(n)
			for slab := lo; slab < hi; slab += checkEvery {
				if err := ctx.Err(); err != nil {
					r.err = err
					return
				}
				r.scored += metrics.ScanTopK(q, y, slab, min(slab+checkEvery, hi), excluded, r.t)
			}
		}
		wg.Add(1)
		select {
		case s.tasks <- job:
		case <-ctx.Done():
			wg.Done()
			submitErr = ctx.Err()
		}
		if submitErr != nil {
			break
		}
	}
	wg.Wait()
	if submitErr != nil {
		return nil, 0, submitErr
	}
	merged, scored := metrics.NewTopK(n), 0
	for _, r := range res {
		if r.err != nil {
			return nil, 0, r.err
		}
		merged.Merge(r.t)
		scored += r.scored
	}
	return merged.Drain(), scored, nil
}

// rankedSlab is how many rows a ranked scan scores between context checks:
// most pruned scans end well inside one checkEvery stretch.
const rankedSlab = 256

// TopNRanked is TopN over a quantized, norm-ranked item-factor matrix, and
// also reports how many rows it scored. The scan is one task on the bounded
// pool: it stops once no remaining row can enter the heap (quant.Ranked),
// which leaves too little work for a fan-out and merge to pay for. Results
// equal the natural-order full scan's item for item and score for score;
// ctx is honored while queueing for a worker and between slabs.
func (s *Scorer) TopNRanked(ctx context.Context, x []float32, y *quant.Ranked, excluded func(int) bool, n int) (out []metrics.Scored, rows int, err error) {
	if n <= 0 || y == nil || y.Rows == 0 {
		return nil, 0, nil
	}
	done := make(chan struct{})
	job := func() {
		defer close(done)
		qr := y.Prepare(x)
		t := metrics.NewTopK(n)
		for lo := 0; lo < y.Rows; lo += rankedSlab {
			if err = ctx.Err(); err != nil {
				return
			}
			hi := min(lo+rankedSlab, y.Rows)
			scored := y.ScanTopK(qr, lo, hi, excluded, t)
			rows += scored
			if scored < hi-lo {
				break
			}
		}
		out = t.Drain()
	}
	select {
	case s.tasks <- job:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	<-done
	return out, rows, err
}

// RatedExcluder returns an exclusion predicate over the sorted column
// indices of user u's rated row, or nil when there is nothing to exclude.
// Binary search over the CSR row avoids building a per-request map. It
// reads only r's pattern, so r may be one (sparse.CSR.Pattern).
func RatedExcluder(r *sparse.CSR, u int) func(int) bool {
	if r == nil || u < 0 || u >= r.NumRows {
		return nil
	}
	return sortedExcluder(r.RowCols(u))
}

// sortedExcluder returns the exclusion predicate "i is in sorted", a binary
// search over ascending local item indices, or nil when there is nothing to
// exclude. It is the one predicate every scan is handed: a user's rated CSR
// row here, a fold-in request's exclude list on a shard replica.
func sortedExcluder(sorted []int32) func(int) bool {
	if len(sorted) == 0 {
		return nil
	}
	return func(i int) bool {
		lo, hi := 0, len(sorted)
		for lo < hi {
			mid := (lo + hi) / 2
			if int(sorted[mid]) < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(sorted) && int(sorted[lo]) == i
	}
}
