package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/sparse"
)

// The accessors below read back state that no serving path reads; they
// exist for this package's internal and external tests alone.

// UserEntries counts the entries currently cached for one dense user row
// (what PurgeUser must bring to zero).
func (c *Cache) UserEntries(user int) int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).key.user == user {
			n++
		}
	}
	return n
}

// Healthy returns how many shards are currently marked up.
func (f *Frontend) Healthy() (up, total int) {
	for _, st := range f.shards {
		if st.up.Load() {
			up++
		}
	}
	return up, len(f.shards)
}

// Swap atomically installs a new model. An empty version falls back to the
// model's own Meta.Version, then to "v<seq>".
func (s *Store) Swap(m *core.Model, rated *sparse.CSR, version string) *Snapshot {
	return s.swapShard(context.Background(), m, sparse.NewGaps(rated), version, 0, 0)
}

// SwapRejectedCount reads the rejection counter.
func (t *Telemetry) SwapRejectedCount() uint64 { return uint64(t.swapRejected.Value()) }
