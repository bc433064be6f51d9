package dse

import (
	"container/list"
	"sync"

	"repro/internal/model"
)

// CacheStats is a point-in-time snapshot of a cache's traffic.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Computes counts actual fills (compile+analyze executions) a
	// singleflight cache performed; zero for plain LRU caches.
	Computes uint64
	// Coalesced counts lookups that joined an in-flight fill instead of
	// starting their own; zero for plain LRU caches.
	Coalesced uint64
	// DiskHits counts fills answered by the persistent artifact store
	// instead of a full compile+analyze; zero for plain LRU caches and
	// for caches without a store.
	DiskHits uint64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PredCache is a bounded LRU cache of analytical predictions, keyed by
// an opaque string (the service keys on kernel source hash × platform ×
// design so editing a kernel invalidates its cached predictions). A
// capacity ≤ 0 disables caching: every Get misses and Put is a no-op,
// which lets callers keep one code path whether or not caching is on.
type PredCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	stats CacheStats
}

type predItem struct {
	key string
	est model.Estimate
}

// NewPredCache returns an LRU prediction cache holding at most capacity
// entries.
func NewPredCache(capacity int) *PredCache {
	return &PredCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the cached estimate for key and marks it most recently
// used. Every call counts as a hit or a miss. Estimates are stored and
// returned by value (model.Estimate is flat), so no caller shares the
// cached entry.
func (c *PredCache) Get(key string) (model.Estimate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*predItem).est, true
	}
	c.stats.Misses++
	return model.Estimate{}, false
}

// Put inserts (or refreshes) an entry, evicting the least recently used
// entry when the cache is full.
func (c *PredCache) Put(key string, est model.Estimate) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*predItem).est = est
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&predItem{key: key, est: est})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*predItem).key)
		c.stats.Evictions++
	}
}

// Len returns the number of cached entries.
func (c *PredCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cap returns the configured capacity.
func (c *PredCache) Cap() int { return c.cap }

// Stats returns a snapshot of the cache's hit/miss/eviction counters.
func (c *PredCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Keys returns the cached keys from most to least recently used
// (primarily for tests asserting eviction order).
func (c *PredCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*predItem).key)
	}
	return out
}
