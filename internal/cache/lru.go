package cache

import (
	"container/list"
	"sync"
)

// Sharded is a fixed-capacity LRU over Keys, split into independently
// locked shards so concurrent serving traffic does not serialise on one
// mutex. The zero value is not usable; build with New.
//
// Capacity is enforced per shard (capacity/shards entries each, minimum
// one), which bounds total residency at the configured capacity while
// keeping eviction decisions lock-local.
type Sharded[V any] struct {
	shards []lruShard[V]
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
		return v, true
	}
	s.mu.Unlock()
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
		return
	}
	if s.ll.Len() >= s.cap {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.m, last.Value.(*lruEntry[V]).key)
	}
	s.m[key] = s.ll.PushFront(&lruEntry[V]{key: key, val: v})
	s.mu.Unlock()
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
