// Package memo provides Table, a concurrency-safe memo table with a fixed
// entry capacity and least-recently-used eviction. The engine's per-session
// memos of pure functions (quantifier triggers, compiled template fillers,
// predicate-set consistency verdicts) and the server's parsed-problem cache
// use it, so a long-lived serving session holds them in bounded memory: an
// evicted entry is simply computed again, to the same value.
package memo

import (
	"container/list"
	"sync"
)

// Table maps keys to memoized values, holding at most its capacity of
// entries; inserting past it evicts the least recently looked-up entry.
// Its methods mirror sync.Map's Load and LoadOrStore.
type Table[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order list.List // *entry[K, V] values; front = most recently used
	index map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty table holding at most capacity entries (at least one).
func New[K comparable, V any](capacity int) *Table[K, V] {
	return &Table[K, V]{cap: max(capacity, 1), index: map[K]*list.Element{}}
}

// Load returns the value stored for k, marking it most recently used.
func (t *Table[K, V]) Load(k K) (v V, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.index[k]
	if !ok {
		return v, false
	}
	t.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// LoadOrStore returns the value already stored for k (loaded true), or
// stores v and returns it (loaded false), evicting the least recently used
// entry when the table is full. Either way k becomes most recently used.
func (t *Table[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.index[k]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	if t.order.Len() >= t.cap {
		oldest := t.order.Back()
		t.order.Remove(oldest)
		delete(t.index, oldest.Value.(*entry[K, V]).key)
	}
	t.index[k] = t.order.PushFront(&entry[K, V]{key: k, val: v})
	return v, false
}

// Len returns how many entries the table holds.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}
