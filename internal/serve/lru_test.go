package serve

import (
	"fmt"
	"testing"

	"repro/internal/memo"
	"repro/internal/spec"
)

// newProblemCache returns a parsed-problem cache of the Server's type.
func newProblemCache(capacity int) *memo.Table[string, *spec.Problem] {
	return memo.New[string, *spec.Problem](capacity)
}

// TestLRUHotProblemSurvivesChurn is the regression for an arbitrary
// single-eviction cache: a problem that keeps getting hit must stay
// resident while a scan of one-off keys churns through the cache.
func TestLRUHotProblemSurvivesChurn(t *testing.T) {
	c := newProblemCache(4)
	hot := &spec.Problem{}
	c.LoadOrStore("hot", hot)
	for i := 0; i < 100; i++ {
		if got, ok := c.Load("hot"); !ok || got != hot {
			t.Fatalf("hot problem evicted after %d churn inserts", i)
		}
		c.LoadOrStore(fmt.Sprintf("cold-%d", i), &spec.Problem{})
	}
	if _, ok := c.Load("hot"); !ok {
		t.Fatal("hot problem evicted by churn despite being hit every round")
	}
	if c.Len() != 4 {
		t.Fatalf("cache len = %d, want capacity 4", c.Len())
	}
	// The churn keys are one-hit wonders: only the most recent survive.
	if _, ok := c.Load("cold-0"); ok {
		t.Error("cold-0 still cached after 100 inserts into a 4-entry LRU")
	}
	if _, ok := c.Load("cold-99"); !ok {
		t.Error("most recent cold key missing")
	}
}

// TestLRUEvictionOrder checks hit-ordered (not insertion-ordered) eviction.
func TestLRUEvictionOrder(t *testing.T) {
	c := newProblemCache(3)
	a, b, d := &spec.Problem{}, &spec.Problem{}, &spec.Problem{}
	c.LoadOrStore("a", a)
	c.LoadOrStore("b", b)
	c.LoadOrStore("d", d)
	c.Load("a") // a is now MRU; b is LRU
	c.LoadOrStore("e", &spec.Problem{})
	if _, ok := c.Load("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "d", "e"} {
		if _, ok := c.Load(k); !ok {
			t.Errorf("%s missing", k)
		}
	}
	// Refreshing an existing key must not grow the cache.
	c.LoadOrStore("a", a)
	if c.Len() != 3 {
		t.Fatalf("len = %d after refresh, want 3", c.Len())
	}
}
