package smt

import (
	"fmt"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/stats"
)

func mustF(src string) logic.Formula { return lang.MustParseFormula(src) }

func TestValidityTable(t *testing.T) {
	s := NewSolver(Options{})
	cases := []struct {
		src  string
		want bool
	}{
		// Linear integer arithmetic.
		{"x + 1 > x", true},
		{"x - 1 < x", true},
		{"x + y = y + x", true},
		{"2 * x = x + x", true},
		{"x < y => x + 1 <= y", true}, // integer tightness
		{"x < y => x + 2 <= y", false},
		{"x <= y && y <= x => x = y", true},
		{"x != y => (x < y || x > y)", true},
		{"x < 3 && x > 1 => x = 2", true},
		// Arrays.
		{"A[i] = A[i]", true},
		{"i = j => A[i] = A[j]", true},
		{"A[i] = A[j]", false},
		{"A[i] != A[j] => i != j", true},
		// Quantifiers.
		{"(forall k. A[k] >= 0) => A[5] >= 0", true},
		{"(forall k. A[k] >= 0) => A[x] + A[y] >= 0", true},
		{"A[5] >= 0 => (forall k. A[k] >= 0)", false},
		{"(forall k. k >= lo && k <= hi => A[k] = 7) => (lo <= x && x <= hi => A[x] = 7)", true},
		{"(exists k. A[k] = 0) => (exists k. A[k] <= 0)", true},
		// Mixed.
		{"(forall k. (0 <= k && k < n) => A[k] < A[k + 1]) => ((0 <= i && i + 1 < n) => A[i] < A[i + 1])", true},
	}
	for _, tc := range cases {
		t.Run(tc.src, func(t *testing.T) {
			if got := s.Valid(mustF(tc.src)); got != tc.want {
				t.Errorf("Valid(%s) = %v, want %v", tc.src, got, tc.want)
			}
		})
	}
}

func TestStoreChains(t *testing.T) {
	s := NewSolver(Options{})
	a := logic.AV("A")
	i, j, k := logic.V("i"), logic.V("j"), logic.V("k")
	// Two-deep store chain: upd(upd(A,i,1),j,2)[k] reads correctly.
	chain := logic.Upd(logic.Upd(a, i, logic.I(1)), j, logic.I(2))
	if !s.Valid(logic.EqF(logic.Sel(chain, j), logic.I(2))) {
		t.Error("outer store read")
	}
	if !s.Valid(logic.Imp(logic.Conj(logic.NeqF(k, j), logic.EqF(k, i)),
		logic.EqF(logic.Sel(chain, k), logic.I(1)))) {
		t.Error("inner store read under disequality")
	}
	if !s.Valid(logic.Imp(logic.Conj(logic.NeqF(k, j), logic.NeqF(k, i)),
		logic.EqF(logic.Sel(chain, k), logic.Sel(a, k)))) {
		t.Error("miss-all read")
	}
	// Same-index overwrite: the inner store is shadowed.
	if !s.Valid(logic.EqF(logic.Sel(logic.Upd(logic.Upd(a, i, logic.I(1)), i, logic.I(2)), i), logic.I(2))) {
		t.Error("shadowed store")
	}
}

func TestSwapIsPermutation(t *testing.T) {
	// The core reasoning pattern behind the ∀∃ benchmarks: a swap
	// preserves the multiset, expressed via explicit witnesses.
	s := NewSolver(Options{})
	a := logic.AV("A")
	i, j, k := logic.V("i"), logic.V("j"), logic.V("k")
	t1 := logic.Sel(a, i)
	swapped := logic.Upd(logic.Upd(a, i, logic.Sel(a, j)), j, t1)
	// The value at any untouched position survives in place.
	f := logic.Imp(logic.Conj(logic.NeqF(k, i), logic.NeqF(k, j)),
		logic.EqF(logic.Sel(swapped, k), logic.Sel(a, k)))
	if !s.Valid(f) {
		t.Error("untouched positions")
	}
	// The value from i is at j and vice versa.
	if !s.Valid(logic.EqF(logic.Sel(swapped, j), logic.Sel(a, i))) {
		t.Error("i's value lands at j")
	}
	g := logic.Imp(logic.NeqF(i, j), logic.EqF(logic.Sel(swapped, i), logic.Sel(a, j)))
	if !s.Valid(g) {
		t.Error("j's value lands at i")
	}
}

func TestUninterpretedFunctions(t *testing.T) {
	s := NewSolver(Options{})
	x, y := logic.V("x"), logic.V("y")
	// Congruence: x = y ⇒ f(x) = f(y).
	if !s.Valid(logic.Imp(logic.EqF(x, y), logic.EqF(logic.App("f", x), logic.App("f", y)))) {
		t.Error("congruence")
	}
	// No inverse assumption: f(x) = f(y) does not give x = y.
	if s.Valid(logic.Imp(logic.EqF(logic.App("f", x), logic.App("f", y)), logic.EqF(x, y))) {
		t.Error("injectivity wrongly assumed")
	}
	// Binary congruence.
	if !s.Valid(logic.Imp(logic.Conj(logic.EqF(x, y), logic.EqF(logic.V("u"), logic.V("v"))),
		logic.EqF(logic.App("g", x, logic.V("u")), logic.App("g", y, logic.V("v"))))) {
		t.Error("binary congruence")
	}
}

func TestCacheBehaviour(t *testing.T) {
	s := NewSolver(Options{})
	f := mustF("x + 1 > x")
	if !s.Valid(f) || !s.Valid(f) {
		t.Fatal("validity")
	}
	if s.NumQueries() != 1 || s.NumCacheHits() != 1 {
		t.Errorf("queries=%d hits=%d, want 1/1", s.NumQueries(), s.NumCacheHits())
	}
	// Cache eviction under a one-node budget: every settled verdict is
	// evicted by the next claim on its shard, so re-asking the first formula
	// decides it again, with the same verdict.
	s2 := newBudgetSolver(Options{}, ctxBudget, 1)
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 8; i++ {
		for _, v := range vars {
			s2.Valid(mustF(fmt.Sprintf("%s < %s + %d", v, v, i+1)))
		}
	}
	if !s2.Valid(mustF("a < a + 1")) {
		t.Error("re-decided verdict changed")
	}
	if s2.Counters()[stats.CacheEvicted].Load() == 0 || s2.NumQueries() < 2 {
		t.Errorf("bounded cache should have evicted: evicted=%d queries=%d", s2.Counters()[stats.CacheEvicted].Load(), s2.NumQueries())
	}
	// Eviction is least recently used and bounded, not a full wipe: with a
	// budget of about sixteen entries, filling past it must not discard
	// every earlier verdict at once.
	one := logic.Intern(mustF("a < a + 1")).Size()
	s3 := newBudgetSolver(Options{}, ctxBudget, int64(16*one))
	for i := 0; i < 8; i++ {
		for _, v := range vars {
			s3.Valid(mustF(fmt.Sprintf("%s < %s + %d", v, v, i+1)))
		}
	}
	if got := s3.cache.size(); got == 0 || s3.Counters()[stats.CacheEvicted].Load() == 0 {
		t.Errorf("bounded eviction: %d entries left, %d evicted", got, s3.Counters()[stats.CacheEvicted].Load())
	}
}

func TestSatisfiableGroundExactness(t *testing.T) {
	s := NewSolver(Options{})
	if !s.Satisfiable(mustF("x < y && y < z")) {
		t.Error("chain should be satisfiable")
	}
	if s.Satisfiable(mustF("x < y && y < x")) {
		t.Error("cycle should be unsat")
	}
	if s.Satisfiable(logic.False) {
		t.Error("false")
	}
	if !s.Satisfiable(logic.True) {
		t.Error("true")
	}
}

func TestTriggersWithOffsets(t *testing.T) {
	// Adjacent-sortedness facts need the k+1 trigger pattern: candidates
	// t−1 for ground indices t.
	s := NewSolver(Options{})
	f := mustF(`(forall k. (0 <= k && k < n - 1) => A[k] <= A[k + 1]) =>
		((0 <= i && i < n - 2) => A[i] <= A[i + 2])`)
	if !s.Valid(f) {
		t.Error("two-step adjacent chain should be derivable via offset triggers")
	}
}

func TestSkolemWitnessFlow(t *testing.T) {
	// ∀∃ fact used to prove another ∀∃ fact after an index shift — the
	// skolem witness of the hypothesis must reach the conclusion's
	// instantiation set (requires 2 rounds).
	s := NewSolver(Options{})
	f := mustF(`(forall y. (0 <= y && y < n) => (exists x. B[y] = A[x] && 0 <= x && x < n)) =>
		(forall y. (0 <= y && y < n) => (exists x. B[y] = A[x] && 0 <= x && x <= n))`)
	if !s.Valid(f) {
		t.Error("weakened witness bound should follow")
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.Normalize()
	if o.InstRounds != 3 || o.MaxInstances != 4096 || o.MaxAckermannPairs != 20000 || o.MaxTheoryIterations != 100000 {
		t.Errorf("defaults = %+v", o)
	}
	// Explicit values survive.
	o = Options{InstRounds: 5}.Normalize()
	if o.InstRounds != 5 {
		t.Error("explicit option overridden")
	}
}

func TestArrFamily(t *testing.T) {
	cases := map[string]string{"A": "A", "A#1": "A", "A#12": "A", "B#2": "B", "lon#g#er": "lon"}
	for in, want := range cases {
		if got := arrFamily(in); got != want {
			t.Errorf("arrFamily(%q) = %q, want %q", in, got, want)
		}
	}
}
