package serve

import (
	"context"

	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/sparse"
)

// checkEvery is how many rows a float32 scan scores between context
// checks, so an expired deadline aborts a scan over a huge catalog promptly.
const checkEvery = 4096

// scanStackK is the widest query a float32 scan widens on its own stack
// (linalg's CG matvec draws the same line).
const scanStackK = 128

// rankedSlab is how many rows a ranked scan scores between context checks:
// most pruned scans end well inside one checkEvery stretch.
const rankedSlab = 256

// scanTopN returns the n strongest items of y under x·y_i, strongest first,
// skipping items for which excluded returns true (nil excludes nothing),
// and how many rows got an exact score. screen is y's int16 copy
// (metrics.NewScreen, Snapshot.Screen), which rules out rows that cannot
// reach the heap; nil scores every row. The scan runs on the caller's
// goroutine into one size-n heap; between slabs of checkEvery rows it
// checks ctx and returns ctx.Err() once that is set, with the rows scored
// until then.
func scanTopN(ctx context.Context, x []float32, y *linalg.Dense, screen *metrics.Screen, excluded func(int) bool, n int) ([]metrics.Scored, int, error) {
	if n <= 0 || y == nil || y.Rows == 0 {
		return nil, 0, nil
	}
	// The query is prepared once: widened on this stack up to scanStackK
	// components (a longer one grows onto the heap) and quantized for the
	// screen there too, so metrics.ScanTopK converts only the item side.
	var wide [scanStackK]float64
	var levels [metrics.MaxScreenK]int16
	q := metrics.PrepareScan(x, wide[:], levels[:], screen)
	t := metrics.NewTopK(n)
	rows := 0
	for lo := 0; lo < y.Rows; lo += checkEvery {
		if err := ctx.Err(); err != nil {
			return nil, rows, err
		}
		rows += metrics.ScanTopK(q, y, lo, min(lo+checkEvery, y.Rows), excluded, t)
	}
	return t.Drain(), rows, nil
}

// scanRanked is scanTopN over a quantized, norm-ranked item-factor matrix:
// it stops at the first slab that ends early, once no remaining row can
// enter the heap (quant.Ranked). Results equal the natural-order full
// scan's item for item and score for score; ctx is checked between slabs
// of rankedSlab rows.
func scanRanked(ctx context.Context, x []float32, y *quant.Ranked, excluded func(int) bool, n int) ([]metrics.Scored, int, error) {
	if n <= 0 || y == nil || y.Rows == 0 {
		return nil, 0, nil
	}
	qr := y.Prepare(x)
	t := metrics.NewTopK(n)
	rows := 0
	for lo := 0; lo < y.Rows; lo += rankedSlab {
		if err := ctx.Err(); err != nil {
			return nil, rows, err
		}
		hi := min(lo+rankedSlab, y.Rows)
		scored := y.ScanTopK(qr, lo, hi, excluded, t)
		rows += scored
		if scored < hi-lo {
			break
		}
	}
	return t.Drain(), rows, nil
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
