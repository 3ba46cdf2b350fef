package optimal

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/stats"
	"repro/internal/template"
)

func unk(n string) logic.Formula { return logic.Unknown{Name: n} }

func newEngine() *Engine { return New(smt.NewSolver(smt.Options{})) }

func solutionKeys(sols []template.Solution) map[string]bool {
	out := map[string]bool{}
	for _, s := range sols {
		out[s.Key()] = true
	}
	return out
}

// qj builds the paper's Q_{j,V} for bound variable j and bounds {0,i,n}.
func qjTerms(j string, bounds []logic.Term) []logic.Formula {
	var out []logic.Formula
	for _, b := range bounds {
		out = append(out,
			logic.LtF(logic.V(j), b), logic.LeF(logic.V(j), b),
			logic.GtF(logic.V(j), b), logic.GeF(logic.V(j), b))
	}
	return out
}

// TestExample4 reproduces Example 4: the negative unknown η in
// i = 0 ⇒ (∀j: η ⇒ A[j] = 0) over Q_{j,{0,i,n}} has exactly the four
// optimal solutions {0<j≤i}, {0≤j<i}, {i<j≤0}, {i≤j<0}.
func TestExample4(t *testing.T) {
	e := newEngine()
	phi := logic.Imp(
		logic.EqF(logic.V("i"), logic.I(0)),
		logic.All([]string{"j"}, logic.Imp(unk("h"),
			logic.EqF(logic.Sel(logic.AV("A"), logic.V("j")), logic.I(0)))))
	q := template.Domain{"h": qjTerms("j", []logic.Term{logic.I(0), logic.V("i"), logic.V("n")})}
	sols := e.OptimalNegativeSolutions(phi, q)
	got := solutionKeys(sols)
	want := []template.Solution{
		{"h": template.NewPredSet(logic.GtF(logic.V("j"), logic.I(0)), logic.LeF(logic.V("j"), logic.V("i")))},
		{"h": template.NewPredSet(logic.GeF(logic.V("j"), logic.I(0)), logic.LtF(logic.V("j"), logic.V("i")))},
		{"h": template.NewPredSet(logic.GtF(logic.V("j"), logic.V("i")), logic.LeF(logic.V("j"), logic.I(0)))},
		{"h": template.NewPredSet(logic.GeF(logic.V("j"), logic.V("i")), logic.LtF(logic.V("j"), logic.I(0)))},
	}
	for _, w := range want {
		if !got[w.Key()] {
			t.Errorf("missing optimal solution %v (got %v)", w.Key(), got)
		}
	}
	// The engine also finds the two strict-strict variants {j<0 ∧ j>i} and
	// {j>0 ∧ j<i}, which satisfy Definition 2 just as well (valid, minimal,
	// and satisfiable as formulas); the paper's list is abbreviated. Check
	// every returned solution is pairwise minimal.
	if len(sols) < 4 || len(sols) > 6 {
		t.Errorf("got %d solutions: %v", len(sols), got)
	}
	for i, s := range sols {
		for j, r := range sols {
			if i != j && solutionSubset(r, s) {
				t.Errorf("solution %v subsumed by %v", s, r)
			}
		}
	}
}

// TestExample5 reproduces Example 5: the positive unknown ρ in
// (i ≥ n ∧ (∀j: ρ ⇒ A[j]=0)) ⇒ (∀j: 0 ≤ j < n ⇒ A[j]=0) has the single
// optimal solution {0 ≤ j, j < n, j < i}.
func TestExample5(t *testing.T) {
	e := newEngine()
	a := logic.AV("A")
	phi := logic.Imp(
		logic.Conj(
			logic.GeF(logic.V("i"), logic.V("n")),
			logic.All([]string{"j"}, logic.Imp(unk("r"),
				logic.EqF(logic.Sel(a, logic.V("j")), logic.I(0))))),
		logic.All([]string{"j"}, logic.Imp(
			logic.Conj(logic.LeF(logic.I(0), logic.V("j")), logic.LtF(logic.V("j"), logic.V("n"))),
			logic.EqF(logic.Sel(a, logic.V("j")), logic.I(0)))))
	q := template.Domain{"r": qjTerms("j", []logic.Term{logic.I(0), logic.V("i"), logic.V("n")})}
	sols := e.OptimalSolutions(phi, q)
	if len(sols) != 1 {
		t.Fatalf("got %d solutions, want 1: %v", len(sols), sols)
	}
	got := sols[0]["r"]
	for _, p := range []logic.Formula{
		logic.GeF(logic.V("j"), logic.I(0)),
		logic.LtF(logic.V("j"), logic.V("n")),
		logic.LtF(logic.V("j"), logic.V("i")),
	} {
		if !got.Contains(p) {
			t.Errorf("maximal positive solution missing %v: got %v", p, got)
		}
	}
}

// TestExample6 reproduces the shape of Example 6: one positive and one
// negative unknown; merging grows the positive side while keeping the
// negative minimal.
func TestExample6(t *testing.T) {
	e := newEngine()
	a := logic.AV("A")
	phi := logic.Imp(
		logic.Conj(
			unk("h"),
			logic.GeF(logic.V("i"), logic.V("n")),
			logic.All([]string{"j"}, logic.Imp(unk("r"),
				logic.EqF(logic.Sel(a, logic.V("j")), logic.I(0))))),
		logic.All([]string{"j"}, logic.Imp(
			logic.LeF(logic.V("j"), logic.V("m")),
			logic.EqF(logic.Sel(a, logic.V("j")), logic.I(0)))))
	le := func(x, y string) logic.Formula { return logic.LeF(logic.V(x), logic.V(y)) }
	q := template.Domain{
		"r": {le("j", "i"), le("j", "n"), le("j", "m")},
		"h": {le("m", "i"), le("m", "n"), le("i", "n"), le("n", "i")},
	}
	sols := e.OptimalSolutions(phi, q)
	if len(sols) == 0 {
		t.Fatal("no solutions")
	}
	keys := solutionKeys(sols)
	// Paper solution 2: ρ ↦ {j≤n, j≤m, j≤i}, η ↦ {m≤n}.
	want2 := template.Solution{
		"r": template.NewPredSet(le("j", "n"), le("j", "m"), le("j", "i")),
		"h": template.NewPredSet(le("m", "n")),
	}
	// Paper solution 3: ρ ↦ {j≤i, j≤m}, η ↦ {m≤i}.
	want3 := template.Solution{
		"r": template.NewPredSet(le("j", "i"), le("j", "m")),
		"h": template.NewPredSet(le("m", "i")),
	}
	// Paper solution 1: ρ ↦ {j≤m}, η ↦ ∅.
	want1 := template.Solution{
		"r": template.NewPredSet(le("j", "m")),
		"h": template.NewPredSet(),
	}
	for _, w := range []template.Solution{want1, want2, want3} {
		if !keys[w.Key()] {
			t.Errorf("missing paper solution %v\n got: %v", w.Key(), keys)
		}
	}
}

func TestNoUnknownsValid(t *testing.T) {
	e := newEngine()
	sols := e.OptimalNegativeSolutions(logic.LeF(logic.V("x"), logic.V("x")), template.Domain{})
	if len(sols) != 1 {
		t.Errorf("valid unknown-free formula should yield one empty solution, got %v", sols)
	}
	sols = e.OptimalNegativeSolutions(logic.LtF(logic.V("x"), logic.V("x")), template.Domain{})
	if len(sols) != 0 {
		t.Errorf("invalid unknown-free formula should yield none, got %v", sols)
	}
}

func TestMonotonicityPrecheck(t *testing.T) {
	// Even the full predicate set cannot make x < x valid.
	e := newEngine()
	phi := logic.Imp(unk("h"), logic.LtF(logic.V("x"), logic.V("x")))
	q := template.Domain{"h": {logic.LeF(logic.V("x"), logic.I(0))}}
	if sols := e.OptimalNegativeSolutions(phi, q); len(sols) != 0 {
		t.Errorf("unsatisfiable target should have no solutions, got %v", sols)
	}
}

func TestContradictoryGuardsPruned(t *testing.T) {
	e := newEngine()
	// Every 2-subset containing {x<0, x>0} would be vacuously valid; the
	// engine must not enumerate contradictory sets.
	phi := logic.Imp(unk("h"), logic.LtF(logic.V("y"), logic.V("y")))
	q := template.Domain{"h": {
		logic.LtF(logic.V("x"), logic.I(0)),
		logic.GtF(logic.V("x"), logic.I(0)),
	}}
	for _, s := range e.OptimalNegativeSolutions(phi, q) {
		if s["h"].Len() == 2 {
			t.Errorf("contradictory guard set returned: %v", s)
		}
	}
}

func TestSplitConjGrouping(t *testing.T) {
	b := logic.LeF(logic.V("x"), logic.V("y"))
	f := logic.Imp(b, logic.Conj(
		logic.All([]string{"k"}, logic.Imp(unk("a"), b)),
		logic.All([]string{"k"}, logic.Imp(unk("b"), b)),
		b,
	))
	parts := splitConj(f)
	if len(parts) != 3 {
		t.Fatalf("splitConj should push the implication in: %v", parts)
	}
	groups, fixed := groupByUnknowns(parts)
	if len(groups) != 2 || len(fixed) != 1 {
		t.Errorf("groups=%d fixed=%d", len(groups), len(fixed))
	}
	// Shared unknowns merge groups.
	g := logic.Conj(
		logic.Imp(unk("a"), b),
		logic.Imp(unk("a"), logic.Disj(b, unk("c"))),
		logic.Imp(unk("d"), b),
	)
	groups, _ = groupByUnknowns(splitConj(g))
	if len(groups) != 2 {
		t.Errorf("a and c must share a group, d separate: %d groups", len(groups))
	}
}

func TestDominates(t *testing.T) {
	a := logic.LtF(logic.V("x"), logic.I(0))
	b := logic.GtF(logic.V("x"), logic.I(5))
	s1 := template.Solution{"p": template.NewPredSet(a, b), "n": template.NewPredSet()}
	s2 := template.Solution{"p": template.NewPredSet(a), "n": template.NewPredSet(a)}
	if !dominates(s1, s2, []string{"p"}, []string{"n"}) {
		t.Error("bigger positive + smaller negative should dominate")
	}
	if dominates(s2, s1, []string{"p"}, []string{"n"}) {
		t.Error("dominance is antisymmetric here")
	}
}

// TestSatisfiableSetDecidesOnce has parallel jobs miss on one predicate set
// together: the first claims it and the rest wait for its verdict, so the
// set costs one consistency probe, and exactly one caller reports it fresh.
func TestSatisfiableSetDecidesOnce(t *testing.T) {
	e := newEngine()
	ps := template.NewPredSet(
		logic.LtF(logic.V("i"), logic.V("n")),
		logic.GeF(logic.V("i"), logic.I(0)),
		logic.LeF(logic.V("n"), logic.I(10)))
	const jobs = 16
	var wg sync.WaitGroup
	var fresh atomic.Int32
	start := make(chan struct{})
	for range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sat, _, f := e.satisfiableSet(ps)
			if !sat {
				t.Error("0 <= i < n <= 10 reported inconsistent")
			}
			if f {
				fresh.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := e.S.Counters()[stats.AssumptionProbes].Load(); n != 1 {
		t.Errorf("%d goroutines on one set made %d consistency probes, want 1", jobs, n)
	}
	if n := fresh.Load(); n != 1 {
		t.Errorf("%d callers reported the probe fresh, want 1", n)
	}
}
