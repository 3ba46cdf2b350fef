package memo

import (
	"sync"
	"testing"
)

// TestTableFirstStoreWins: a memoized value is never replaced, so racing
// computations of one key all return the first stored result. (Eviction
// order is pinned by the parsed-problem cache's tests in internal/serve.)
func TestTableFirstStoreWins(t *testing.T) {
	tb := New[int, string](2)
	if v, loaded := tb.LoadOrStore(1, "first"); loaded || v != "first" {
		t.Fatalf("LoadOrStore on an empty slot = %q, %v", v, loaded)
	}
	if v, loaded := tb.LoadOrStore(1, "second"); !loaded || v != "first" {
		t.Errorf("LoadOrStore on a present key = %q, %v; want the stored value", v, loaded)
	}
	if v, ok := tb.Load(1); !ok || v != "first" {
		t.Errorf("Load = %q, %v", v, ok)
	}
}

// TestTableConcurrent hammers one small table from several goroutines; the
// race detector checks the locking, and the capacity must hold throughout.
func TestTableConcurrent(t *testing.T) {
	tb := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := (g*31 + i) % 64
				if v, ok := tb.Load(k); ok && v != k*k {
					t.Errorf("Load(%d) = %d", k, v)
					return
				}
				if v, _ := tb.LoadOrStore(k, k*k); v != k*k {
					t.Errorf("LoadOrStore(%d) = %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tb.Len() > 16 {
		t.Errorf("Len = %d past capacity 16", tb.Len())
	}
}
