package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Stats is the cache's counter snapshot. All counters are cumulative
// since construction. Only tests read them, asserting arithmetic
// identities over them (for example hits + misses == lookups);
// dpserved's /metrics counts hits, misses and coalesced requests with
// its own counters.
type Stats struct {
	Hits       int64 // Get found the key
	Misses     int64 // Get did not find the key
	Insertions int64 // Add stored a new key
	Updates    int64 // Add overwrote an existing key
	Evictions  int64 // an entry was dropped to respect capacity
}

// Sharded is a fixed-capacity LRU over Keys, split into independently
// locked shards so concurrent serving traffic does not serialise on one
// mutex. The zero value is not usable; build with New.
//
// Capacity is enforced per shard (capacity/shards entries each, minimum
// one), which bounds total residency at the configured capacity while
// keeping eviction decisions lock-local.
type Sharded[V any] struct {
	shards []lruShard[V]

	hits, misses, insertions, updates, evictions atomic.Int64
}

type lruShard[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[Key]*list.Element
}

type lruEntry[V any] struct {
	key Key
	val V
}

// New returns a sharded LRU holding at most capacity entries across
// `shards` shards (shards <= 0 picks 16; capacity <= 0 picks 1024).
func New[V any](capacity, shards int) *Sharded[V] {
	if shards <= 0 {
		shards = 16
	}
	if capacity <= 0 {
		capacity = 1024
	}
	if shards > capacity {
		shards = capacity
	}
	per := capacity / shards
	if per < 1 {
		per = 1
	}
	c := &Sharded[V]{shards: make([]lruShard[V], shards)}
	for i := range c.shards {
		c.shards[i] = lruShard[V]{cap: per, ll: list.New(), m: make(map[Key]*list.Element)}
	}
	return c
}

// Get returns the cached value for key and marks it most recently used.
func (c *Sharded[V]) Get(key Key) (V, bool) {
	s := &c.shards[key.shard(len(c.shards))]
	s.mu.Lock()
	el, ok := s.m[key]
	if ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*lruEntry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Add stores the value under key, evicting the shard's least recently
// used entry when at capacity.
func (c *Sharded[V]) Add(key Key, v V) {
	s := &c.shards[key.shard(len(c.shards))]
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		c.updates.Add(1)
		return
	}
	evicted := false
	if s.ll.Len() >= s.cap {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.m, last.Value.(*lruEntry[V]).key)
		evicted = true
	}
	s.m[key] = s.ll.PushFront(&lruEntry[V]{key: key, val: v})
	s.mu.Unlock()
	c.insertions.Add(1)
	if evicted {
		c.evictions.Add(1)
	}
}

// Len returns the current number of resident entries.
func (c *Sharded[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cumulative counters.
func (c *Sharded[V]) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Insertions: c.insertions.Load(),
		Updates:    c.updates.Load(),
		Evictions:  c.evictions.Load(),
	}
}
