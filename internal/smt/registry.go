package smt

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// The solver's retained state — the persistent context groups of the
// per-skeleton registry and the memoized validity verdicts — lives under one
// fixed budget per Solver, so a long-lived serving session stops growing
// with every never-seen problem it decides. Both sides are accounted in a
// size measure rather than a count and evict least recently used entries
// once over their share:
//
//   - ctxBudget bounds the registered context groups in SAT units:
//     variables + clauses + learnt clauses, summed over a group's lanes. A
//     group is stamped at every ContextFor hit and every probe that grows it.
//   - cacheBudget bounds the validity cache in formula nodes
//     (logic.IFormula.Size of each key). An entry is stamped at every
//     lookup; in-flight entries are never evicted.
//
// Both shares sit about 1.6x above the largest DefaultSuite cell's peak
// (DESIGN §10), so the budget binds only on sessions that outlive many
// problems. Eviction is
// always sound: an evicted skeleton gets a fresh context that decides the
// same verdicts, an evicted verdict is decided again, and a caller still
// holding an evicted context may keep using it — the registry merely stops
// counting and retaining it.
const (
	ctxBudget   = 256 << 10
	cacheBudget = 1 << 20
)

// trigMemoCap bounds the solver's quantifier-trigger memo in entries; the
// largest DefaultSuite cell holds about 200.
const trigMemoCap = 1024

// ctxRegistry is the per-skeleton context registry: one persistent Context
// (the first lane of its group) per compiled VC skeleton, in LRU order.
type ctxRegistry struct {
	mu     sync.Mutex
	budget int64 // SAT units the registered groups may hold (ctxBudget)
	byKey  map[*logic.IFormula]*Context
	lru    list.List // *ctxGroup values; front = most recently used
	used   int64     // SAT units of the registered groups

	evicted atomic.Int64 // groups evicted to stay within budget
}

// get returns the registered context for key, stamping its group as most
// recently used, or nil.
func (r *ctxRegistry) get(key *logic.IFormula) *Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.byKey[key]
	if c != nil {
		r.lru.MoveToFront(c.group.elem)
	}
	return c
}

// getOrAdd returns the registered context for key, registering the one
// create builds when there is none. create runs under the registry lock, so
// two racing callers never build two groups for one skeleton.
func (r *ctxRegistry) getOrAdd(key *logic.IFormula, create func() *Context) *Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.byKey[key]; c != nil {
		r.lru.MoveToFront(c.group.elem)
		return c
	}
	if r.byKey == nil {
		r.byKey = map[*logic.IFormula]*Context{}
	}
	c := create()
	c.group.key = key
	c.group.elem = r.lru.PushFront(c.group)
	r.byKey[key] = c
	return c
}

// grow adds d SAT units to g's size. A registered group is stamped as most
// recently used and charged against the budget; going over evicts least
// recently used groups other than g until the registry fits again (a single
// group larger than the whole budget is the one case it cannot).
func (r *ctxRegistry) grow(g *ctxGroup, d int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	g.units += d
	if g.elem == nil {
		return
	}
	r.used += d
	r.lru.MoveToFront(g.elem)
	for e := r.lru.Back(); e != nil && r.used > r.budget; {
		prev := e.Prev()
		if v := e.Value.(*ctxGroup); v != g {
			r.lru.Remove(e)
			v.elem = nil
			delete(r.byKey, v.key)
			r.used -= v.units
			r.evicted.Add(1)
		}
		e = prev
	}
}

// usage returns the SAT units the registered groups hold.
func (r *ctxRegistry) usage() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}
