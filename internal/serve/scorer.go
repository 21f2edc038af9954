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

// RatedExcluder returns the exclusion predicate "user u rated item i" over
// a rated set, or nil when there is nothing to exclude: no set (a nil
// pointer of either type), u out of range, or an empty row. The set is a
// snapshot's coded one (sparse.Gaps.Has: a search of the row's restart
// heads and a short decode) or a CSR, of which only the pattern is read
// (sortedExcluder over the row). Neither builds anything per request, but
// RatedExcluder does not inline (its type switch is over the budget), so
// its predicate is one heap allocation a call; the request path calls
// gapsExcluder instead.
func RatedExcluder[R *sparse.Gaps | *sparse.CSR](r R, u int) func(int) bool {
	if m, ok := any(r).(*sparse.CSR); ok {
		if m == nil || u < 0 || u >= m.NumRows {
			return nil
		}
		return sortedExcluder(m.RowCols(u))
	}
	return gapsExcluder(any(r).(*sparse.Gaps), u)
}

// gapsExcluder is RatedExcluder over a coded set. The request path calls
// it directly: it inlines, so the predicate stays on the request's stack,
// as sortedExcluder's does.
func gapsExcluder(g *sparse.Gaps, u int) func(int) bool {
	if g == nil || u < 0 || u >= g.NumRows || g.RowEmpty(u) {
		return nil
	}
	return func(i int) bool { return g.Has(u, i) }
}

// sortedExcluder returns the exclusion predicate "i is in sorted", a binary
// search over ascending local item indices (sparse.InSorted), or nil when
// there is nothing to exclude: a CSR's rated row, and a fold-in request's
// exclude list on a shard replica.
func sortedExcluder(sorted []int32) func(int) bool {
	if len(sorted) == 0 {
		return nil
	}
	return func(i int) bool { return sparse.InSorted(sorted, i) }
}
