//go:build go1.24

package logic

import (
	"sync"
	"weak"
)

// Weak intern table (see intern.go for the design rationale): buckets hold
// weak.Pointer entries, so a canonical handle — and the formula tree it
// pins — is reclaimable as soon as no cache or memo chain references it.
// Dead entries are compacted opportunistically whenever their bucket is
// probed, and a full shard sweep runs every internSweepEvery inserts so
// buckets that are never probed again cannot accumulate dead stubs.

// InternReclaims reports whether the table lets the GC reclaim formulas that
// nothing else references (true here; false for the strong table).
const InternReclaims = true

// internSweepEvery bounds dead-entry accumulation per shard: at most this
// many inserts happen between full shard sweeps.
const internSweepEvery = 4096

type internShard struct {
	mu         sync.Mutex
	buckets    map[uint64][]weak.Pointer[IFormula]
	sinceSweep int
}

type itermShard struct {
	mu         sync.Mutex
	buckets    map[uint64][]weak.Pointer[ITerm]
	sinceSweep int
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
	s.sinceSweep++
	if s.sinceSweep >= internSweepEvery {
		s.sinceSweep = 0
		sweepFormulas(s)
	}
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
	s.sinceSweep++
	if s.sinceSweep >= internSweepEvery {
		s.sinceSweep = 0
		sweepTerms(s)
	}
	s.mu.Unlock()
	internedCount.Add(1)
	return n
}

func sweepFormulas(s *internShard) {
	for h, bucket := range s.buckets {
		live := bucket[:0]
		for _, wp := range bucket {
			if wp.Value() != nil {
				live = append(live, wp)
			}
		}
		switch {
		case len(live) == 0:
			delete(s.buckets, h)
		case len(live) != len(bucket):
			s.buckets[h] = live
		}
	}
}

func sweepTerms(s *itermShard) {
	for h, bucket := range s.buckets {
		live := bucket[:0]
		for _, wp := range bucket {
			if wp.Value() != nil {
				live = append(live, wp)
			}
		}
		switch {
		case len(live) == 0:
			delete(s.buckets, h)
		case len(live) != len(bucket):
			s.buckets[h] = live
		}
	}
}
