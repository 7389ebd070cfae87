package service

import (
	"container/list"
	"sync"

	"igpart/internal/fault"
	"igpart/internal/obs"
)

// lru is the content-addressed result cache: a fixed-capacity,
// mutex-guarded LRU keyed by the SHA-256 content address of
// (canonical netlist, normalized options). Hit/miss/eviction counts
// feed the engine's obs registry (service.cache_hits, …_misses,
// …_evictions), so /metrics exposes cache effectiveness directly.
//
// Values are *Result pointers shared between the cache and every job
// served from it; results are treated as immutable after publication.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	byKey map[string]*list.Element
	reg   *obs.Registry
	inj   *fault.Injector
}

type lruEntry struct {
	key string
	res *Result
}

// newLRU returns a cache holding up to capacity entries, or nil (a
// disabled cache — every lookup misses, stores are dropped) when
// capacity <= 0. The registry may be nil.
func newLRU(capacity int, reg *obs.Registry, inj *fault.Injector) *lru {
	if capacity <= 0 {
		return nil
	}
	return &lru{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element, capacity),
		reg:   reg,
		inj:   inj,
	}
}

// get returns the cached result for key, counting the hit or miss.
func (c *lru) get(key string) (*Result, bool) { return c.lookup(key, true) }

// filled looks key up again for a job whose miss get counted at intake:
// it counts a hit, which an identical job filled in the meantime, but
// no second miss.
func (c *lru) filled(key string) (*Result, bool) { return c.lookup(key, false) }

func (c *lru) lookup(key string, countMiss bool) (*Result, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		if countMiss {
			c.reg.Counter("service.cache_misses").Add(1)
		}
		return nil, false
	}
	c.order.MoveToFront(el)
	c.reg.Counter("service.cache_hits").Add(1)
	return el.Value.(*lruEntry).res, true
}

// put stores res under key, evicting the least-recently-used entry when
// the cache is full. Storing an existing key refreshes its recency.
func (c *lru) put(key string, res *Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() {
		// Evict-storm injection: a firing store is followed by a full
		// wipe — the stored entry included — counting each eviction.
		// Correctness must not depend on the cache's contents; only hit
		// rates and latency may move, and the chaos suite pins exactly
		// that.
		if c.inj.Active(fault.CacheEvictStorm) {
			for c.order.Len() > 0 {
				oldest := c.order.Back()
				c.order.Remove(oldest)
				delete(c.byKey, oldest.Value.(*lruEntry).key)
				c.reg.Counter("service.cache_evictions").Add(1)
			}
		}
	}()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*lruEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
		c.reg.Counter("service.cache_evictions").Add(1)
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, res: res})
}

// len returns the number of cached entries.
func (c *lru) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
