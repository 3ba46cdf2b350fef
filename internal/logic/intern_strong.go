//go:build !go1.24

package logic

import "sync"

// Strong intern table: the pre-weak-pointer fallback for toolchains before
// Go 1.24. Append-only — every canonical handle is pinned for the process
// lifetime. Functionally identical to the weak table (intern_weak.go), just
// without reclamation, so long-running sweeps retain more memory.

// InternReclaims reports whether the table lets the GC reclaim formulas that
// nothing else references (false here; true for the weak table).
const InternReclaims = false

type internShard struct {
	mu      sync.Mutex
	buckets map[uint64][]*IFormula
}

type itermShard struct {
	mu      sync.Mutex
	buckets map[uint64][]*ITerm
}

var (
	internFormulas [internShards]internShard
	internTerms    [internShards]itermShard
)

// Intern returns the canonical handle for f. The fast path is one O(|f|)
// allocation-free hash walk plus a bucket probe under a shard lock.
func Intern(f Formula) *IFormula {
	size := 0
	h := HashFormula(f, &size)
	s := &internFormulas[h%internShards]
	s.mu.Lock()
	if s.buckets == nil {
		s.buckets = make(map[uint64][]*IFormula)
	}
	for _, n := range s.buckets[h] {
		if FormulaStructEq(f, n.f) {
			s.mu.Unlock()
			return n
		}
	}
	n := &IFormula{f: f, hash: h, id: internNextID.Add(1), size: int32(size)}
	s.buckets[h] = append(s.buckets[h], n)
	s.mu.Unlock()
	internedCount.Add(1)
	return n
}

// InternTerm returns the canonical handle for t.
func InternTerm(t Term) *ITerm {
	size := 0
	h := HashTerm(t, &size)
	s := &internTerms[h%internShards]
	s.mu.Lock()
	if s.buckets == nil {
		s.buckets = make(map[uint64][]*ITerm)
	}
	for _, n := range s.buckets[h] {
		if TermStructEq(t, n.t) {
			s.mu.Unlock()
			return n
		}
	}
	n := &ITerm{t: t, hash: h, id: internNextID.Add(1), size: int32(size)}
	s.buckets[h] = append(s.buckets[h], n)
	s.mu.Unlock()
	internedCount.Add(1)
	return n
}
