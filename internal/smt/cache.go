package smt

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// validityCache is a sharded, size-budgeted LRU memo table for validity
// verdicts with singleflight deduplication: when several goroutines ask about
// the same formula concurrently, exactly one performs the decision procedure
// and the rest wait for its verdict. The sharding keeps lock contention low
// when a solver is hammered from many goroutines.
//
// Keys are interned formula handles (*logic.IFormula): pointer-unique per
// structure, so the map lookup is a single word comparison, and the shard is
// picked from the handle's precomputed structural hash — no per-lookup
// hashing or allocation (the historical implementation re-hashed a full
// String() rendering through fnv on every probe).
const cacheShards = 32

type validityCache struct {
	// budget bounds the entries of all shards together in formula nodes
	// (cacheBudget). Past it, a new claim evicts its shard's least recently
	// looked-up settled entries until the cache fits again (or the shard
	// has none left); in-flight entries other goroutines wait on are never
	// evicted. Keys hash evenly across shards, so per-shard LRU order
	// approximates a global one without a cache-wide lock.
	budget int64
	used   atomic.Int64 // formula nodes of the entries of all shards
	shards [cacheShards]cacheShard

	evicted atomic.Int64 // settled entries evicted to stay within budget
}

type cacheShard struct {
	mu  sync.Mutex
	m   map[*logic.IFormula]*cacheEntry
	lru list.List // *cacheEntry values; front = most recently looked up
}

// cacheEntry is one in-flight or settled verdict. done is closed once val is
// set; waiters block on it (singleflight).
type cacheEntry struct {
	done chan struct{}
	val  bool
	key  *logic.IFormula
	elem *list.Element
}

func (e *cacheEntry) settled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// newValidityCache returns a cache holding at most budget formula nodes of
// settled entries.
func newValidityCache(budget int64) *validityCache {
	c := &validityCache{budget: budget}
	for i := range c.shards {
		c.shards[i].m = map[*logic.IFormula]*cacheEntry{}
	}
	return c
}

func (c *validityCache) shard(n *logic.IFormula) *cacheShard {
	return &c.shards[n.Hash()%cacheShards]
}

// lookupOrClaim returns (entry, true) when the formula is already present —
// settled or in flight — and the caller should wait on it; otherwise it
// installs a fresh in-flight entry owned by the caller and returns
// (entry, false). The owner must call settle (and optionally forget) on it.
// Either way the entry becomes the shard's most recently used.
func (c *validityCache) lookupOrClaim(n *logic.IFormula) (*cacheEntry, bool) {
	sh := c.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[n]; ok {
		sh.lru.MoveToFront(e.elem)
		return e, true
	}
	e := &cacheEntry{done: make(chan struct{}), key: n}
	e.elem = sh.lru.PushFront(e)
	sh.m[n] = e
	used := c.used.Add(int64(n.Size()))
	for el := sh.lru.Back(); el != nil && used > c.budget; {
		prev := el.Prev()
		if v := el.Value.(*cacheEntry); v.settled() {
			used = c.remove(sh, v)
			c.evicted.Add(1)
		}
		el = prev
	}
	return e, false
}

// remove drops e from its shard, whose lock must be held, and returns the
// cache's remaining size.
func (c *validityCache) remove(sh *cacheShard, e *cacheEntry) int64 {
	sh.lru.Remove(e.elem)
	delete(sh.m, e.key)
	return c.used.Add(-int64(e.key.Size()))
}

// settle publishes the owner's verdict, releasing every waiter.
func (e *cacheEntry) settle(v bool) {
	e.val = v
	close(e.done)
}

// forget removes a settled entry the owner does not want memoized (an
// abandoned, conservative verdict). Waiters that already hold the entry
// still receive its value.
func (c *validityCache) forget(n *logic.IFormula, e *cacheEntry) {
	sh := c.shard(n)
	sh.mu.Lock()
	if sh.m[n] == e {
		c.remove(sh, e)
	}
	sh.mu.Unlock()
}

// size returns the total number of entries across shards (testing aid).
func (c *validityCache) size() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
