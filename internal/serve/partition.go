package serve

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/sparse"
)

// ParseSpec parses a "-shard i/N" specification.
func ParseSpec(s string) (i, of int, err error) {
	idx, count, ok := strings.Cut(s, "/")
	if ok {
		i, err = strconv.Atoi(strings.TrimSpace(idx))
		if err == nil {
			of, err = strconv.Atoi(strings.TrimSpace(count))
		}
	}
	if !ok || err != nil || of < 1 || i < 0 || i >= of {
		return 0, 0, fmt.Errorf("serve: shard spec %q is not i/N with 0 <= i < N", s)
	}
	return i, of, nil
}

// sliceModel returns shard i's slice of a full model: the item factors
// (and item ID labels) restricted to its sparse.Range of the catalog — a
// static range, so replicas agree on ownership without coordination — the
// user factors shared, and the metadata copied. It reports the slice's
// global item offset and the full catalog size. The float item rows, when
// m has them, are copied, not viewed, so the slice keeps none of the full
// Y alive: a shard holds only what it scans.
func sliceModel(m *core.Model, i, of int) (view *core.Model, itemOffset, itemTotal int) {
	total := m.Items()
	lo, hi := sparse.Range(total, i, of)
	view = &core.Model{K: m.K, X: m.X, UserIDs: m.UserIDs, Meta: m.Meta}
	if m.Y != nil {
		view.Y = linalg.NewDense(hi-lo, m.K)
		copy(view.Y.Data, m.Y.Data[lo*m.K:hi*m.K])
	}
	if m.ItemIDs != nil {
		view.ItemIDs = make([]int64, hi-lo)
		copy(view.ItemIDs, m.ItemIDs[lo:hi])
	}
	if m.QY != nil {
		// A compressed checkpoint's quantized factors slice zero-copy: the
		// swap re-ranks them into a fresh copy (Store.swapShard) and drops
		// this view.
		view.QY = m.QY.Slice(lo, hi)
	}
	return view, lo, total
}
