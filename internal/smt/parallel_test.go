package smt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logic"
)

// stressFormulas builds n syntactically distinct, non-trivial formulas
// (they survive Simplify, so every Valid call goes through the cache).
func stressFormulas(n int) []logic.Formula {
	out := make([]logic.Formula, 0, n)
	for i := 0; i < n; i++ {
		x := logic.V(fmt.Sprintf("x%d", i))
		// x + i > x — valid for i > 0, and distinct per i.
		out = append(out, logic.GtF(logic.Plus(x, logic.I(int64(i+1))), x))
	}
	return out
}

// TestConcurrentValidStress hammers one shared solver from 32 goroutines
// with overlapping formulas and asserts (a) every verdict is correct, and
// (b) the cache-hit accounting is consistent: each call increments exactly
// one of the two counters, so Queries + CacheHits == total calls.
func TestConcurrentValidStress(t *testing.T) {
	const (
		goroutines = 32
		rounds     = 40
		distinct   = 24
	)
	s := NewSolver(Options{})
	fs := stressFormulas(distinct)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f := fs[(g*7+r)%distinct] // overlapping access pattern
				if !s.Valid(f) {
					t.Errorf("goroutine %d: Valid(%s) = false", g, f)
					return
				}
				calls.Add(1)
			}
		}(g)
	}
	wg.Wait()
	total := calls.Load()
	if got := s.NumQueries() + s.NumCacheHits(); got != total {
		t.Errorf("Queries(%d) + CacheHits(%d) = %d, want %d calls",
			s.NumQueries(), s.NumCacheHits(), got, total)
	}
	// Singleflight: each distinct formula is decided at most once even under
	// heavy overlap (no duplicated work, no lost memoization).
	if q := s.NumQueries(); q > distinct {
		t.Errorf("decided %d queries for %d distinct formulas; singleflight failed", q, distinct)
	}
}

// TestConcurrentValidBoundedCache repeats the stress with a tight cache
// budget: eviction must stay race-free and accounting exact even when
// verdicts are continually evicted and re-decided, and singleflight waiters
// must still receive the verdict of an entry evicted after they joined it.
func TestConcurrentValidBoundedCache(t *testing.T) {
	s := newBudgetSolver(Options{}, ctxBudget, 1) // one node: at most the in-flight entries
	fs := stressFormulas(64)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 32; r++ {
				if !s.Valid(fs[(g+r)%len(fs)]) {
					t.Errorf("unexpected invalid verdict")
					return
				}
				calls.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if got := s.NumQueries() + s.NumCacheHits(); got != calls.Load() {
		t.Errorf("Queries+CacheHits = %d, want %d", got, calls.Load())
	}
	if s.NumCacheEvicted() == 0 {
		t.Error("one-node budget evicted nothing")
	}
}

// TestConcurrentStopDoesNotMemoize checks the Stop contract under
// concurrency: verdicts reached after Stop fires are conservative and must
// not persist in the memo table.
func TestConcurrentStopDoesNotMemoize(t *testing.T) {
	var stopped atomic.Bool
	s := NewSolver(Options{Stop: func() bool { return stopped.Load() }})
	f := stressFormulas(1)[0]
	stopped.Store(true)
	s.Valid(f)
	if s.cache.size() != 0 {
		t.Errorf("abandoned verdict was memoized (%d entries)", s.cache.size())
	}
}

// BenchmarkValidSequential decides a fixed workload of distinct formulas on
// one goroutine with a cold cache per iteration (the pre-parallel baseline).
func BenchmarkValidSequential(b *testing.B) {
	fs := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver(Options{})
		for _, f := range fs {
			s.Valid(f)
		}
	}
}

// BenchmarkValidParallel decides the same workload fanned out over
// GOMAXPROCS goroutines sharing one solver. On a ≥4-core box this shows the
// near-linear speedup of the sharded concurrent cache; per-op time is
// comparable to BenchmarkValidSequential divided by the core count.
func BenchmarkValidParallel(b *testing.B) {
	fs := benchWorkload()
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver(Options{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(fs); j += workers {
					s.Valid(fs[j])
				}
			}(w)
		}
		wg.Wait()
	}
}

// benchWorkload builds a mixed batch of quantified and ground VCs shaped
// like the ones the fixed-point algorithms emit.
func benchWorkload() []logic.Formula {
	var out []logic.Formula
	for i := 0; i < 48; i++ {
		a := logic.AV("A")
		k, n, x := logic.V("k"), logic.V("n"), logic.V(fmt.Sprintf("x%d", i))
		hyp := logic.All([]string{"k"},
			logic.Imp(logic.Conj(logic.LeF(logic.I(0), k), logic.LtF(k, n)),
				logic.GeF(logic.Sel(a, k), logic.I(int64(i%5)))))
		concl := logic.Imp(logic.Conj(logic.LeF(logic.I(0), x), logic.LtF(x, n)),
			logic.GeF(logic.Sel(a, x), logic.I(int64(i%5))))
		out = append(out, logic.Imp(hyp, concl))
	}
	return out
}

// TestParallelValidSpeedup measures wall-clock speedup of concurrent Valid
// calls over the sequential path. It only asserts on machines with ≥4 cores
// (the acceptance environment); elsewhere it logs the ratio.
func TestParallelValidSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	fs := benchWorkload()
	seqStart := time.Now()
	{
		s := NewSolver(Options{})
		for _, f := range fs {
			s.Valid(f)
		}
	}
	seq := time.Since(seqStart)

	workers := runtime.GOMAXPROCS(0)
	parStart := time.Now()
	{
		s := NewSolver(Options{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := w; j < len(fs); j += workers {
					s.Valid(fs[j])
				}
			}(w)
		}
		wg.Wait()
	}
	par := time.Since(parStart)
	ratio := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel(%d workers) %v, speedup %.2fx", seq, workers, par, ratio)
	if workers >= 4 && ratio < 2 {
		t.Errorf("expected >=2x speedup on %d cores, got %.2fx", workers, ratio)
	}
}
