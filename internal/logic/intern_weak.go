//go:build go1.24

package logic

import (
	"runtime"
	"sync"
	"weak"
)

// Weak intern table (see intern.go for the design rationale): buckets hold
// weak.Pointer entries, so a canonical handle — and the formula tree it
// pins — is reclaimable as soon as no cache or memo chain references it.
// Each handle carries a cleanup that prunes its bucket once the GC has
// collected it, dropping the bucket when it empties, so the table holds
// entries only for live handles and the dead ones a cleanup has yet to run
// for. Dead entries are also compacted whenever their bucket is probed.

// InternReclaims reports whether the table lets the GC reclaim formulas that
// nothing else references (true here; false for the strong table).
const InternReclaims = true

type internShard struct {
	mu      sync.Mutex
	buckets map[uint64][]weak.Pointer[IFormula]
}

type itermShard struct {
	mu      sync.Mutex
	buckets map[uint64][]weak.Pointer[ITerm]
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
		s.buckets = make(map[uint64][]weak.Pointer[IFormula])
	}
	bucket := s.buckets[h]
	live := bucket[:0]
	var found *IFormula
	for _, wp := range bucket {
		n := wp.Value()
		if n == nil {
			continue // collected: compact away
		}
		live = append(live, wp)
		if found == nil && FormulaStructEq(f, n.f) {
			found = n
		}
	}
	if found != nil {
		if len(live) != len(bucket) {
			s.buckets[h] = live
		}
		s.mu.Unlock()
		return found
	}
	n := &IFormula{f: f, hash: h, id: internNextID.Add(1), size: int32(size)}
	s.buckets[h] = append(live, weak.Make(n))
	s.mu.Unlock()
	runtime.AddCleanup(n, pruneFormulas, h)
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
		s.buckets = make(map[uint64][]weak.Pointer[ITerm])
	}
	bucket := s.buckets[h]
	live := bucket[:0]
	var found *ITerm
	for _, wp := range bucket {
		n := wp.Value()
		if n == nil {
			continue
		}
		live = append(live, wp)
		if found == nil && TermStructEq(t, n.t) {
			found = n
		}
	}
	if found != nil {
		if len(live) != len(bucket) {
			s.buckets[h] = live
		}
		s.mu.Unlock()
		return found
	}
	n := &ITerm{t: t, hash: h, id: internNextID.Add(1), size: int32(size)}
	s.buckets[h] = append(live, weak.Make(n))
	s.mu.Unlock()
	runtime.AddCleanup(n, pruneTerms, h)
	internedCount.Add(1)
	return n
}

// pruneFormulas is the cleanup of a collected formula handle: it drops the
// dead entries of the handle's bucket h, and the bucket once it is empty.
func pruneFormulas(h uint64) {
	s := &internFormulas[h%internShards]
	s.mu.Lock()
	pruneBucket(s.buckets, h)
	s.mu.Unlock()
}

// pruneTerms is pruneFormulas for a collected term handle.
func pruneTerms(h uint64) {
	s := &internTerms[h%internShards]
	s.mu.Lock()
	pruneBucket(s.buckets, h)
	s.mu.Unlock()
}

// pruneBucket drops the dead entries of bucket h, and the bucket once none
// is left.
func pruneBucket[T any](buckets map[uint64][]weak.Pointer[T], h uint64) {
	bucket, ok := buckets[h]
	if !ok {
		return
	}
	live := bucket[:0]
	for _, wp := range bucket {
		if wp.Value() != nil {
			live = append(live, wp)
		}
	}
	clear(bucket[len(live):])
	switch {
	case len(live) == 0:
		delete(buckets, h)
	case len(live) != len(bucket):
		buckets[h] = live
	}
}
