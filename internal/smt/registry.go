package smt

import (
	"container/list"
	"sync"

	"repro/internal/logic"
	"repro/internal/stats"
)

// The solver's retained state — the persistent contexts of the
// per-skeleton registry and the memoized validity verdicts — lives under one
// fixed budget per Solver, so a long-lived serving session stops growing
// with every never-seen problem it decides. Both sides are accounted in a
// size measure rather than a count and evict least recently used entries
// once over their share:
//
//   - ctxBudget bounds the registered contexts in SAT units: variables +
//     clauses + learnt clauses of each context's SAT instance. A context is
//     stamped at every ContextFor hit and every probe that grows it.
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
// per compiled VC skeleton, in LRU order.
type ctxRegistry struct {
	mu     sync.Mutex
	budget int64 // SAT units the registered contexts may hold (ctxBudget)
	byKey  map[*logic.IFormula]*Context
	lru    list.List // *Context values; front = most recently used
	used   int64     // SAT units of the registered contexts

	ctr *stats.Counters // counts CtxBudgetUsed (mirroring used) and CtxEvicted
}

// get returns the registered context for key, stamping it as most recently
// used, or nil.
func (r *ctxRegistry) get(key *logic.IFormula) *Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.byKey[key]
	if c != nil {
		r.lru.MoveToFront(c.elem)
	}
	return c
}

// getOrAdd returns the registered context for key, registering the one
// create builds when there is none. create runs under the registry lock, so
// two racing callers never build two contexts for one skeleton.
func (r *ctxRegistry) getOrAdd(key *logic.IFormula, create func() *Context) *Context {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.byKey[key]; c != nil {
		r.lru.MoveToFront(c.elem)
		return c
	}
	if r.byKey == nil {
		r.byKey = map[*logic.IFormula]*Context{}
	}
	c := create()
	c.key = key
	c.elem = r.lru.PushFront(c)
	r.byKey[key] = c
	return c
}

// grow adds d SAT units to c's size; c's lock must be held. A registered
// context is stamped as most recently used and charged against the budget;
// going over evicts least recently used contexts other than c until the
// registry fits again (a single context larger than the whole budget is the
// one case it cannot).
func (r *ctxRegistry) grow(c *Context, d int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c.units += d
	if c.elem == nil {
		return
	}
	before := r.used
	defer func() { r.ctr.Add(stats.CtxBudgetUsed, r.used-before) }()
	r.used += d
	r.lru.MoveToFront(c.elem)
	for e := r.lru.Back(); e != nil && r.used > r.budget; {
		prev := e.Prev()
		if v := e.Value.(*Context); v != c {
			r.lru.Remove(e)
			v.elem = nil
			delete(r.byKey, v.key)
			r.used -= v.units
			r.ctr.Add(stats.CtxEvicted, 1)
		}
		e = prev
	}
}
