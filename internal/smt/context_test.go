package smt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/logic"
	"repro/internal/stats"
)

// freshVerdict decides f with a brand-new non-incremental solver, so no
// context, cache, or learnt state can leak into the reference answer.
func freshVerdict(f logic.Formula) bool {
	return NewSolver(Options{NoIncremental: true}).Valid(f)
}

// genDiffAtom builds a random atom inside the difference fragment
// (x − y ▷◁ k or x ▷◁ k, possibly through an array select), which is where
// every benchmark VC lands and hence where the incremental path stays live.
func genDiffAtom(rng *rand.Rand) logic.Formula {
	vars := []string{"a", "b", "c", "d"}
	term := func() logic.Term {
		v := logic.Term(logic.V(vars[rng.Intn(len(vars))]))
		if rng.Intn(4) == 0 {
			v = logic.Sel(logic.AV("A"), v)
		}
		return v
	}
	ops := []logic.RelOp{logic.Eq, logic.Neq, logic.Lt, logic.Le, logic.Gt, logic.Ge}
	lhs := term()
	rhs := logic.Term(logic.I(int64(rng.Intn(5) - 2)))
	if rng.Intn(2) == 0 {
		rhs = logic.Plus(term(), rhs)
	}
	return logic.Rel(ops[rng.Intn(len(ops))], lhs, rhs)
}

// genDiffFormula combines difference atoms with ∧/∨/¬ only.
func genDiffFormula(rng *rand.Rand, depth int) logic.Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		return genDiffAtom(rng)
	}
	switch rng.Intn(3) {
	case 0:
		return logic.Conj(genDiffFormula(rng, depth-1), genDiffFormula(rng, depth-1))
	case 1:
		return logic.Disj(genDiffFormula(rng, depth-1), genDiffFormula(rng, depth-1))
	default:
		return logic.Neg(genDiffFormula(rng, depth-1))
	}
}

// TestContextVsFreshRandomGround cross-checks a long-lived Context against
// from-scratch solving on random ground probes: the persistent instance
// accumulates encodings, Ackermann constraints, theory lemmas, and learnt
// clauses across probes, and every verdict must still match a fresh solver's.
func TestContextVsFreshRandomGround(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver(Options{})
	ctx := s.NewContext()
	if ctx == nil {
		t.Fatal("NewContext returned nil on an incremental solver")
	}
	for probe := 0; probe < 300; probe++ {
		f := genDiffFormula(rng, 3)
		got := ctx.Valid(f)
		want := freshVerdict(f)
		if got != want {
			t.Fatalf("probe %d: context=%v fresh=%v on %v", probe, got, want, f)
		}
	}
	if s.NumAssumptionProbes() == 0 {
		t.Error("no probe went through the incremental path")
	}
}

// TestContextMixedFragmentIncremental: probes that leave the difference
// fragment switch the context's theory checker from DiffChecker to a
// persistent LinChecker (they used to turn it dormant); verdicts must stay
// identical to the from-scratch path for the rest of its life, and the
// context must stay live.
func TestContextMixedFragmentIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSolver(Options{})
	ctx := s.NewContext()
	for probe := 0; probe < 150; probe++ {
		f := genGroundFormula(rng, 3) // includes a+b-style non-difference atoms
		got := ctx.Valid(f)
		want := freshVerdict(f)
		if got != want {
			t.Fatalf("probe %d: context=%v fresh=%v on %v", probe, got, want, f)
		}
	}
	if n := s.Counters()[stats.DormantContexts].Load(); n != 0 {
		t.Errorf("mixed-fragment probes sent %d contexts dormant; want 0", n)
	}
	if s.NumFMIncremental() == 0 {
		t.Error("no probe exercised the persistent general-LIA checker")
	}
}

// TestContextVsFreshSkeletonFills mimics the fixpoint workload: one VC
// skeleton, thousands of candidate predicate fills. The repeated structure
// must hit the encoding memo while verdicts stay identical to from-scratch.
func TestContextVsFreshSkeletonFills(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool := make([]logic.Formula, 12)
	for i := range pool {
		pool[i] = genDiffAtom(rng)
	}
	pick := func() logic.Formula {
		n := 1 + rng.Intn(3)
		fs := make([]logic.Formula, n)
		for i := range fs {
			fs[i] = pool[rng.Intn(len(pool))]
		}
		return logic.Conj(fs...)
	}
	// Fixed "transition relation" shared by every probe, as a compiled VC
	// skeleton would be.
	trans := logic.Conj(
		logic.Rel(logic.Le, logic.V("a"), logic.V("b")),
		logic.Rel(logic.Lt, logic.V("b"), logic.Plus(logic.V("c"), logic.I(1))),
	)
	s := NewSolver(Options{})
	ctx := s.NewContext()
	for probe := 0; probe < 250; probe++ {
		vc := logic.Imp(logic.Conj(pick(), trans), pick())
		got := ctx.Valid(vc)
		want := freshVerdict(vc)
		if got != want {
			t.Fatalf("probe %d: context=%v fresh=%v on %v", probe, got, want, vc)
		}
	}
	if s.NumAssumptionProbes() == 0 {
		t.Error("no probe went through the incremental path")
	}
	if s.NumLemmaReuseHits() == 0 {
		t.Error("no probe reused persisted lemmas or learnt clauses")
	}
}

// TestContextConsistentDifferential checks selector-based consistency probes
// against from-scratch satisfiability of the conjunction, and that every
// reported core is sound: the core's own conjunction must already be
// unsatisfiable (hence so is any superset — the pruning invariant).
func TestContextConsistentDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pool := make([]logic.Formula, 16)
	for i := range pool {
		pool[i] = genDiffAtom(rng)
	}
	s := NewSolver(Options{})
	ctx := s.NewContext()
	decided, unsats := 0, 0
	for probe := 0; probe < 300; probe++ {
		n := 1 + rng.Intn(5)
		preds := make([]logic.Formula, n)
		for i := range preds {
			preds[i] = pool[rng.Intn(len(pool))]
		}
		consistent, core, ok := ctx.Consistent(preds)
		if !ok {
			continue
		}
		decided++
		want := NewSolver(Options{NoIncremental: true}).Satisfiable(logic.Conj(preds...))
		if consistent != want {
			t.Fatalf("probe %d: context consistent=%v fresh satisfiable=%v on %v",
				probe, consistent, want, preds)
		}
		if !consistent {
			unsats++
			if len(core) == 0 {
				t.Fatalf("probe %d: inconsistent conjunction with empty core: %v", probe, preds)
			}
			if NewSolver(Options{NoIncremental: true}).Satisfiable(logic.Conj(core...)) {
				t.Fatalf("probe %d: core %v is satisfiable from scratch", probe, core)
			}
		}
	}
	if decided == 0 {
		t.Fatal("context decided no consistency probe")
	}
	if unsats == 0 {
		t.Log("no inconsistent conjunction generated; core audit vacuous this seed")
	}
}

// TestContextQuantifiedFallback: probes whose negation stays quantified after
// instantiation cannot go through the persistent instance, but the context
// must still answer them (via fallback) with the from-scratch verdict.
func TestContextQuantifiedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := NewSolver(Options{})
	ctx := s.NewContext()
	for probe := 0; probe < 60; probe++ {
		f := genBoundedQuantFormula(rng)
		got := ctx.Valid(f)
		want := freshVerdict(f)
		if got != want {
			t.Fatalf("probe %d: context=%v fresh=%v on %v", probe, got, want, f)
		}
	}
}

// TestContextForRegistry: same skeleton key returns the same context; under
// NoIncremental both constructors hand out one dormant context, whose probes
// are from-scratch queries.
func TestContextForRegistry(t *testing.T) {
	s := NewSolver(Options{})
	key := logic.Intern(logic.Rel(logic.Le, logic.V("a"), logic.V("b")))
	c1 := s.ContextFor(key)
	c2 := s.ContextFor(key)
	if c1 == nil || c1 != c2 {
		t.Fatalf("ContextFor not stable for one key: %p vs %p", c1, c2)
	}
	if s.NumContexts() != 1 {
		t.Errorf("NumContexts = %d, want 1", s.NumContexts())
	}
	off := NewSolver(Options{NoIncremental: true})
	dormant := off.ContextFor(key)
	if dormant == nil || off.NewContext() != dormant {
		t.Fatal("NoIncremental solver should hand out its one dormant context")
	}
	f := logic.Imp(logic.Rel(logic.Le, logic.V("a"), logic.V("b")), logic.Rel(logic.Lt, logic.V("a"), logic.Plus(logic.V("b"), logic.I(1))))
	if !dormant.Valid(f) {
		t.Error("dormant context did not prove a ≤ b ⇒ a < b+1")
	}
	if _, _, ok := dormant.Consistent([]logic.Formula{f}); ok {
		t.Error("dormant context answered a consistency probe")
	}
	if q, p, n := off.NumQueries(), off.NumAssumptionProbes(), off.NumContexts(); q != 1 || p != 0 || n != 0 {
		t.Errorf("NoIncremental: %d queries, %d assumption probes, %d contexts; want 1, 0, 0", q, p, n)
	}
	if off.Incremental() {
		t.Error("Incremental() should be false under NoIncremental")
	}
}

// TestContextForEvictsOldest: once the registered contexts outgrow the
// context budget, the registry keeps handing out contexts, evicting the least
// recently used one so the accounted SAT units never exceed the budget; a
// recently used skeleton survives, and an evicted one gets a fresh context
// that still decides correctly.
func TestContextForEvictsOldest(t *testing.T) {
	const budget = 64
	s := newBudgetSolver(Options{}, budget, cacheBudget)
	skel := func(i int) *logic.IFormula {
		return logic.Intern(logic.Rel(logic.Le, logic.V("a"), logic.Plus(logic.V("b"), logic.I(int64(i)))))
	}
	probe := func(i int) logic.Formula {
		bi := logic.Plus(logic.V("b"), logic.I(int64(i)))
		return logic.Imp(logic.LeF(logic.V("a"), bi), logic.LeF(logic.V("a"), logic.Plus(bi, logic.I(1))))
	}
	first := s.ContextFor(skel(0))
	if !first.Valid(probe(0)) {
		t.Fatal("first context lost a valid verdict")
	}
	const n = 64
	for i := 1; i <= n; i++ {
		c := s.ContextFor(skel(i))
		if c == nil {
			t.Fatalf("skeleton #%d got no context", i+1)
		}
		if got, want := c.Valid(probe(i)), freshVerdict(probe(i)); got != want {
			t.Fatalf("skeleton #%d: context=%v fresh=%v", i+1, got, want)
		}
		if used := s.Counters()[stats.CtxBudgetUsed].Load(); used > budget {
			t.Fatalf("registry holds %d SAT units after %d skeletons, budget %d", used, i+1, budget)
		}
		// Skeleton 1 is touched on every round, so it is never the least
		// recently used context.
		s.ContextFor(skel(1))
	}
	if s.Counters()[stats.CtxEvicted].Load() == 0 || s.registered() > n {
		t.Fatalf("no eviction: %d evicted, %d registered", s.Counters()[stats.CtxEvicted].Load(), s.registered())
	}
	if s.ContextFor(skel(n)) != s.ContextFor(skel(n)) {
		t.Error("newest skeleton's context not stable")
	}
	kept := s.ContextFor(skel(1))
	if s.ContextFor(skel(1)) != kept {
		t.Error("recently used skeleton's context not stable")
	}
	again := s.ContextFor(skel(0))
	if again == nil || again == first {
		t.Fatalf("least recently used skeleton should have been evicted and re-created, got %p (first %p)", again, first)
	}
	f := logic.Imp(logic.LeF(logic.V("a"), logic.V("b")), logic.LeF(logic.V("a"), logic.Plus(logic.V("b"), logic.I(1))))
	if !again.Valid(f) {
		t.Error("re-created context lost a valid verdict")
	}
	// The evicted context stays usable by a caller that still holds it.
	if !first.Valid(logic.Imp(logic.LeF(logic.V("c"), logic.V("d")), logic.LeF(logic.V("c"), logic.Plus(logic.V("d"), logic.I(2))))) {
		t.Error("evicted context lost a valid verdict")
	}
}

// TestContextForBudgetConcurrent drives the registry from several goroutines
// over more skeletons than a small budget holds, so lookups, creations,
// growth and evictions interleave: every verdict must match a fresh
// solver's, and the accounted size must end within the budget.
func TestContextForBudgetConcurrent(t *testing.T) {
	const budget = 96
	s := newBudgetSolver(Options{}, budget, cacheBudget)
	skel := func(k int) *logic.IFormula {
		return logic.Intern(logic.Rel(logic.Le, logic.V("a"), logic.Plus(logic.V("b"), logic.I(int64(k)))))
	}
	probe := func(k, r int) logic.Formula {
		bk := logic.Plus(logic.V("b"), logic.I(int64(k)))
		return logic.Imp(logic.LeF(logic.V("a"), bk), logic.LeF(logic.V("a"), logic.Plus(bk, logic.I(int64(r%3)))))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 60; r++ {
				k := (w*7 + r) % 40
				f := probe(k, r)
				if got, want := s.ContextFor(skel(k)).Valid(f), freshVerdict(f); got != want {
					t.Errorf("skeleton %d round %d: context=%v fresh=%v", k, r, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if used := s.Counters()[stats.CtxBudgetUsed].Load(); used > budget {
		t.Errorf("registry holds %d SAT units, budget %d", used, budget)
	}
	if s.Counters()[stats.CtxEvicted].Load() == 0 {
		t.Error("no eviction over 40 skeletons")
	}
}

// TestContextConcurrentProbes hammers one context from 16 goroutines.
// Contended probes wait for the context's lock instead of falling back to
// the from-scratch path: the from-scratch query count advances only for
// probes decided syntactically, every other distinct probe is one
// assumption probe, and every verdict must match a fresh solver's.
func TestContextConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n = 240
	fs := make([]logic.Formula, n)
	want := make([]bool, n)
	ref := NewSolver(Options{})
	syntactic, probed := map[*logic.IFormula]bool{}, map[*logic.IFormula]bool{}
	for i := range fs {
		fs[i] = genDiffFormula(rng, 3)
		want[i] = freshVerdict(fs[i])
		if _, trivial := logic.TrivialVerdict(fs[i]); trivial {
			continue
		}
		key := logic.Intern(fs[i])
		if _, decided, _ := ref.groundStatic(key); decided {
			syntactic[key] = true
		} else {
			probed[key] = true
		}
	}
	if len(probed) == 0 {
		t.Fatal("no probe reaches the SAT instance")
	}
	s := NewSolver(Options{})
	ctx := s.NewContext()
	const workers = 16
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if got := ctx.Valid(fs[i]); got != want[i] {
					errs <- fmt.Sprintf("probe %d: context verdict %v, fresh %v on %v", i, got, want[i], fs[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	ctr := s.Counters()
	if got := ctr[stats.DormantContexts].Load(); got != 0 {
		t.Fatalf("%d dormant contexts: the comparison below assumes a live context", got)
	}
	if got := ctr[stats.Queries].Load(); got != int64(len(syntactic)) {
		t.Errorf("queries %d, want %d (the probes decided syntactically): a contended probe left the context", got, len(syntactic))
	}
	if got := ctr[stats.AssumptionProbes].Load(); got != int64(len(probed)) {
		t.Errorf("assumption_probes %d, want %d (the distinct probes not decided syntactically)", got, len(probed))
	}
}

// TestContextSATWorkCounted: the solver's SAT work counters sum every
// search of a context, work done before a reset included, and the
// per-request stats object reads the same totals.
func TestContextSATWorkCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSolver(Options{})
	ctx := s.NewContext()
	var decisions, propagations, lemmas int64
	for round := 0; round < 3; round++ {
		for probe := 0; probe < 40; probe++ {
			ctx.Valid(genDiffFormula(rng, 3))
		}
		ctx.mu.Lock()
		decisions += ctx.sat.Stats.Decisions
		propagations += ctx.sat.Stats.Propagations
		lemmas += ctx.sat.Stats.TheoryConflicts
		ctx.reset()
		ctx.mu.Unlock()
	}
	if decisions == 0 || propagations == 0 {
		t.Fatal("probes made no SAT decisions or propagations")
	}
	if got, want := [2]int64{s.Counters()[stats.SATDecisions].Load(), s.Counters()[stats.SATPropagations].Load()}, [2]int64{decisions, propagations}; got != want {
		t.Errorf("solver counts %v, contexts did %v", got, want)
	}
	if got := s.Counters()[stats.TheoryConflicts].Load(); lemmas == 0 || got != lemmas {
		t.Errorf("theory_conflicts %d, contexts resolved %d lemmas", got, lemmas)
	}
	v := s.Counters().Load()
	snap := stats.NewSnapshot(nil, &v)
	if got := [2]int64{snap.SATDecisions, snap.SATPropagations}; got != [2]int64{decisions, propagations} {
		t.Errorf("snapshot counts %v, contexts did %v", got, [2]int64{decisions, propagations})
	}
}

// twoConflicts is valid, and refuting its negation takes two theory
// conflicts: each disjunct of a < b ∨ a < c closes a cycle with b < a or
// with c < a, and only the first lemma can be learnt before the second
// cycle is found.
func twoConflicts() logic.Formula {
	a, b, c := logic.V("a"), logic.V("b"), logic.V("c")
	return logic.Neg(logic.Conj(logic.Disj(logic.LtF(a, b), logic.LtF(a, c)), logic.LtF(b, a), logic.LtF(c, a)))
}

// TestStopEndsProbeInSearch: Stop is polled by the theory check inside the
// SAT search, on the from-scratch path and in a context; once it fires a
// probe that needs the theory answers the conservative "not valid", which
// is not memoized, and the context stays usable and exact afterwards.
func TestStopEndsProbeInSearch(t *testing.T) {
	var stop atomic.Bool
	s := NewSolver(Options{Stop: stop.Load})
	ctx := s.NewContext()
	stop.Store(true)
	if s.Valid(twoConflicts()) || ctx.Valid(twoConflicts()) {
		t.Fatal("a probe stopped inside its search answered valid")
	}
	if n := s.Counters()[stats.TheoryConflicts].Load(); n != 0 {
		t.Errorf("stopped probes resolved %d theory conflicts, want 0", n)
	}
	stop.Store(false)
	if !s.Valid(twoConflicts()) || !ctx.Valid(twoConflicts()) {
		t.Fatal("after Stop cleared, a valid formula was not proved: the stopped verdict was memoized or the context broke")
	}
}

// TestTheoryConflictCap: MaxTheoryIterations caps the theory conflicts of one
// probe; a probe that needs more gives up with the conservative "not valid"
// on both paths.
func TestTheoryConflictCap(t *testing.T) {
	for _, limit := range []int{1, 2} {
		s := NewSolver(Options{MaxTheoryIterations: limit, NoIncremental: true})
		c := NewSolver(Options{MaxTheoryIterations: limit}).NewContext()
		if fresh, inctx := s.Valid(twoConflicts()), c.Valid(twoConflicts()); fresh != (limit >= 2) || inctx != (limit >= 2) {
			t.Errorf("cap %d: valid=%v from scratch, %v in a context; want %v", limit, fresh, inctx, limit >= 2)
		}
		if n := s.Counters()[stats.TheoryConflicts].Load(); n != int64(limit) {
			t.Errorf("cap %d: %d theory conflicts from scratch, want %d", limit, n, limit)
		}
	}
}

// TestAckermannBudget drives the Ackermann pair budget, which no benchmark
// reaches. With MaxAckermannPairs 3, a persistent context whose reads of A
// accumulate past three pairs goes dormant, and is counted once; its later
// probes are decided on one-shot contexts and still answer; a one-shot
// query whose own reads need more pairs decides with the three it asserted,
// a conservative "not valid". Every valid=true holds on a solver with the
// default budget.
func TestAckermannBudget(t *testing.T) {
	s := NewSolver(Options{MaxAckermannPairs: 3})
	ref := NewSolver(Options{NoIncremental: true})
	ctx := s.ContextFor(logic.Intern(logic.Rel(logic.Le, logic.V("a"), logic.V("b"))))
	read := func(v string) logic.Term { return logic.Sel(logic.AV("A"), logic.V(v)) }
	// a = b ⇒ A[a] = A[b] holds only through the pair of its two reads.
	cong := func(x, y string) logic.Formula {
		return logic.Imp(logic.EqF(logic.V(x), logic.V(y)), logic.EqF(read(x), read(y)))
	}
	valid := func(c *Context, f logic.Formula) bool {
		t.Helper()
		got := c.Valid(f)
		if got && !ref.Valid(f) {
			t.Fatalf("valid=true on %v, which the default budget refutes", f)
		}
		return got
	}
	counts := func() (dormant, probes, queries int64) {
		return s.Counters()[stats.DormantContexts].Load(), s.NumAssumptionProbes(), s.NumQueries()
	}

	// Reads of a, b and c need three pairs: within budget, the context stays
	// live and proves each congruence as an assumption probe.
	for _, f := range []logic.Formula{cong("a", "b"), cong("b", "c"), cong("a", "c")} {
		if !valid(ctx, f) {
			t.Fatalf("live context did not prove %v", f)
		}
	}
	if d, p, q := counts(); d != 0 || p != 3 || q != 0 {
		t.Fatalf("within budget: %d dormant, %d probes, %d queries; want 0, 3, 0", d, p, q)
	}

	// The read of d needs a fourth pair: the context goes dormant on this
	// probe, which, like every later one, is decided on a one-shot context,
	// whose two reads need one pair.
	for _, f := range []logic.Formula{cong("a", "d"), cong("d", "b"), cong("c", "d"), cong("b", "a")} {
		if !valid(ctx, f) {
			t.Fatalf("dormant context's fallback did not prove %v", f)
		}
	}
	if d, p, q := counts(); d != 1 || p != 3 || q != 4 {
		t.Fatalf("past budget: %d dormant, %d probes, %d queries; want 1, 3, 4", d, p, q)
	}
	if _, _, ok := ctx.Consistent([]logic.Formula{cong("a", "b")}); ok {
		t.Error("a dormant context answered a consistency probe")
	}

	// Four reads, every pair of them in the conclusion: whatever order the
	// reads are met in, the three pairs of the first three leave the fourth
	// unconstrained, so the one-shot context, truncating, cannot prove what
	// the default budget proves.
	vs := []string{"a", "b", "c", "d"}
	var hyps, concl []logic.Formula
	for i, x := range vs {
		if i > 0 {
			hyps = append(hyps, logic.EqF(logic.V("a"), logic.V(x)))
		}
		for _, y := range vs[i+1:] {
			concl = append(concl, logic.EqF(read(x), read(y)))
		}
	}
	all := logic.Imp(logic.Conj(hyps...), logic.Conj(concl...))
	if !ref.Valid(all) {
		t.Fatalf("the default budget does not prove %v", all)
	}
	if s.Valid(all) {
		t.Fatalf("a one-shot context with 3 pairs proved %v, which needs more", all)
	}
	if d, p, q := counts(); d != 1 || p != 3 || q != 5 {
		t.Fatalf("after the truncating query: %d dormant, %d probes, %d queries; want 1, 3, 5", d, p, q)
	}
}
