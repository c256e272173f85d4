package serve

import (
	"container/list"
	"sync"
)

// lru is the server's bounded, mutex-guarded LRU map, used for both the
// response cache (respKey → serialized body) and the plan cache
// (cohortKey → exogenous plan). A capacity ≤ 0 disables it: nothing is
// stored and nothing is counted as a hit or a miss. A nil *lru reports
// zero stats.
type lru[K comparable, V any] struct {
	mu     sync.Mutex
	cap    int
	items  map[K]*list.Element
	order  *list.List // front = most recent; values are *lruEntry[K, V]
	hits   int64
	misses int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	return &lru[K, V]{cap: capacity, items: map[K]*list.Element{}, order: list.New()}
}

// get returns the cached value and whether it was present, counting a hit
// or a miss.
func (c *lru[K, V]) get(key K) (V, bool) {
	var zero V
	if c == nil || c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookup(key)
}

// getOrBuild returns the cached value for key, building and inserting it
// via build on a miss. Build runs under the lock, so concurrent misses on
// one key build once; a disabled cache just calls build.
func (c *lru[K, V]) getOrBuild(key K, build func() V) V {
	if c == nil || c.cap <= 0 {
		return build()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.lookup(key); ok {
		return v
	}
	v := build()
	c.insert(key, v)
	return v
}

// put stores val under key, replacing any previous value.
func (c *lru[K, V]) put(key K, val V) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.insert(key, val)
}

// lookup is get under the lock.
func (c *lru[K, V]) lookup(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// insert adds a new entry under the lock and evicts down to capacity.
func (c *lru[K, V]) insert(key K, val V) {
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lru[K, V]) stats() (hits, misses int64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}

// respKey is the response cache's key: the cohort key extended with the
// parameter-override digest — the one request dimension cohorts
// deliberately ignore (it is per-lane) — and the wire version the cached
// bytes were serialized for. Forecasts are pure functions of that key —
// responses carry no per-request fields — so a hit is byte-identical to
// recomputation. Keys embed the model's content-hash version, so a hot
// reload naturally invalidates: stale versions stop being requested and age
// out of the LRU.
type respKey struct {
	cohortKey
	paramDigest uint64
	wire        string
}
