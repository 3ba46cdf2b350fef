package serve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/logic"
)

// fillSpec is the i-th of an endless family of never-seen ArrayInit-shaped
// specs: each fills its array with its own constant and carries one
// request-specific junk predicate, so every request compiles new VC
// skeletons, builds new context groups and decides new validity queries.
func fillSpec(i int) string {
	c, a := 100_000+i, 100+i%900
	return fmt.Sprintf(`
program Fill(array A, n) {
  i := 0;
  while loop (i < n) {
    A[i] := %[1]d;
    i := i + 1;
  }
  assert(forall j. (0 <= j && j < n) => A[j] = %[1]d);
}
template loop: forall j. ?v => A[j] = %[1]d;
predicates v: j < 0, j >= 0, j < i, j >= i, j < n, j + %[2]d < n + %[3]d;
`, c, a, a+13)
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// leaseCost is the median wall time of one lease/finish cycle on an idle
// server: the per-request bookkeeping every verify pays around the engine.
func leaseCost(t *testing.T, s *Server) time.Duration {
	t.Helper()
	ds := make([]time.Duration, 200)
	for i := range ds {
		t0 := time.Now()
		_, _, finish, err := s.lease(context.Background(), "soak", 0)
		if err != nil {
			t.Fatal(err)
		}
		finish()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestSoakFreshSpecsBounded pushes 2N never-seen specs through one Pool 1
// session at the default retained-state budget. The solver must evict (the
// budget binds) and its accounted context size must never exceed the
// budget. The live heap at request 2N must stay within 1.3x + 8 MB of
// request N: a plateau, where the unbudgeted engine grew by about 60 KB per
// request on these specs (115 MB to 177 MB). The lease bookkeeping must
// cost the same late in the run as early, within 3x + 50 µs; per-sample
// stats slices made it double (170 µs to 340 µs).
func TestSoakFreshSpecsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 1000
	s := New(Config{Pool: 1})
	solver := s.sessions[0].v.Engine().S
	budget := solver.ContextBudget()
	var heapN float64
	var leaseN time.Duration
	t0 := time.Now()
	for i := 1; i <= 2*n; i++ {
		resp, _, status, err := s.RunVerify(context.Background(), "soak", VerifyRequest{Spec: fillSpec(i), Method: "lfp"})
		if err != nil || status != 200 || !resp.Proved {
			t.Fatalf("request %d: status %d, proved %v, err %v", i, status, resp.Proved, err)
		}
		if used := solver.ContextBudgetUsed(); used > budget {
			t.Fatalf("request %d: contexts hold %d SAT units, budget %d", i, used, budget)
		}
		if i == n {
			heapN, leaseN = liveHeapMB(), leaseCost(t, s)
		}
	}
	heap2N, lease2N := liveHeapMB(), leaseCost(t, s)
	st := s.statsSnapshot()
	t.Logf("%d requests in %v: heap %.1f MB at %d, %.1f MB at %d; lease %v -> %v; ctx_evicted %d, cache_evicted %d, ctx_budget_used %d/%d, contexts %d",
		2*n, time.Since(t0).Round(time.Millisecond), heapN, n, heap2N, 2*n, leaseN, lease2N,
		st.CtxEvicted, st.CacheEvicted, st.CtxBudgetUsed, budget, st.Contexts)
	if st.CtxEvicted == 0 {
		t.Error("the context budget never bound: no evictions")
	}
	// Before Go 1.24 the formula interner pins every formula it ever saw
	// (logic.InternReclaims), so only the budgets' own bounds can be
	// checked there, not the whole heap.
	if logic.InternReclaims && heap2N > 1.3*heapN+8 {
		t.Errorf("live heap grew from %.1f MB at request %d to %.1f MB at %d (bound 1.3x + 8 MB)", heapN, n, heap2N, 2*n)
	}
	if lease2N > 3*leaseN+50*time.Microsecond {
		t.Errorf("lease cost grew from %v at request %d to %v at %d", leaseN, n, lease2N, 2*n)
	}
}
