package serve

import (
	"container/list"
	"sync"

	"repro/internal/metrics"
	"repro/internal/quant"
)

type cacheKey struct {
	version string
	seq     uint64
	user    int
	n       int
	// prec keeps responses scored at different precisions apart: an
	// operator flipping -precision between restarts (same model files,
	// same version label) must never see f32-scored entries answer for a
	// quantized snapshot or vice versa.
	prec quant.Precision
}

type cacheEntry struct {
	key cacheKey
	val []metrics.Scored
}

// Cache is a mutex-guarded LRU for recommendation responses keyed by
// (model version+seq, user, n). Keys embed the snapshot identity, so a
// stale entry can never answer for a newer model; hot-swap additionally
// purges the whole cache so dead entries do not squat on capacity.
// A zero or negative capacity disables caching entirely.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	byKey map[cacheKey]*list.Element
	hits  uint64
	miss  uint64
}

// NewCache returns an LRU holding at most capacity entries.
func NewCache(capacity int) *Cache {
	c := &Cache{cap: capacity}
	if capacity > 0 {
		c.ll = list.New()
		c.byKey = make(map[cacheKey]*list.Element, capacity)
	}
	return c
}

// Get returns the cached items for the key, counting a hit or miss.
func (c *Cache) Get(k cacheKey) ([]metrics.Scored, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	c.miss++
	return nil, false
}

// Put stores the items for the key, evicting the least recently used entry
// when full. Callers must not mutate val afterwards.
func (c *Cache) Put(k cacheKey, val []metrics.Scored) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
	c.byKey[k] = c.ll.PushFront(&cacheEntry{key: k, val: val})
}

// Purge drops every entry (hot-swap invalidation); hit/miss counters are
// cumulative and survive.
func (c *Cache) Purge() {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.byKey = make(map[cacheKey]*list.Element, c.cap)
}

// PurgeUser drops every entry cached for one dense user row, across all
// (version, seq, n) variants, and reports how many were removed. Fold-in
// writes use it so a user's stale recommendations cannot outlive the write.
func (c *Cache) PurgeUser(user int) int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.key.user == user {
			c.ll.Remove(el)
			delete(c.byKey, ent.key)
			removed++
		}
		el = next
	}
	return removed
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}
