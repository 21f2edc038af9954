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

// sliceModel returns shard i's zero-copy view of a full model: the item
// factors (and item ID labels) restricted to its sparse.Range of the
// catalog — a static range, so replicas agree on ownership without
// coordination — the user factors shared, and the metadata copied. It reports the slice's
// global item offset and the full catalog size.
func sliceModel(m *core.Model, i, of int) (view *core.Model, itemOffset, itemTotal int) {
	total := m.Y.Rows
	lo, hi := sparse.Range(total, i, of)
	view = &core.Model{
		K:       m.K,
		X:       m.X,
		Y:       linalg.NewDenseFrom(hi-lo, m.K, m.Y.Data[lo*m.K:hi*m.K]),
		UserIDs: m.UserIDs,
		Meta:    m.Meta,
	}
	if m.ItemIDs != nil {
		view.ItemIDs = m.ItemIDs[lo:hi]
	}
	if m.QY != nil {
		// A compressed checkpoint's quantized factors slice zero-copy too,
		// so every replica shares one encoding of the catalog.
		view.QY = m.QY.Slice(lo, hi)
	}
	return view, lo, total
}
