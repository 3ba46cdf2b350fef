package sat

import (
	"math/rand"
	"testing"
)

// TestDecisionOffNotPropagated pins SetDecision's contract on a two-gate
// instance: above level 0 a switched-off variable is neither branched on nor
// propagated (the clause implying it stays open, and Model reads it false),
// while level 0 propagates it like any other variable.
func TestDecisionOffNotPropagated(t *testing.T) {
	s := New()
	a, g, h := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(nlit(a), lit(g)) // a → g
	s.AddClause(nlit(g), lit(h)) // g → h
	s.SetDecision(g, false)
	s.SetDecision(h, false)
	if s.Decision(g) || !s.Decision(a) {
		t.Fatal("Decision does not report the flags just set")
	}
	if st := s.Solve(lit(a)); st != Sat {
		t.Fatalf("got %v, want sat", st)
	}
	for _, v := range []int{g, h} {
		if s.assigns[v] != unassigned {
			t.Errorf("switched-off variable %d assigned above level 0", v)
		}
		if s.Value(v) || s.Model()[v] {
			t.Errorf("unassigned switched-off variable %d does not read false", v)
		}
	}
	// Switched back on, the same probe propagates the chain again.
	s.SetDecision(g, true)
	s.SetDecision(h, true)
	if st := s.Solve(lit(a)); st != Sat || !s.Value(g) || !s.Value(h) {
		t.Fatalf("all on: got %v g=%v h=%v, want sat with g and h true", st, s.Value(g), s.Value(h))
	}
	// Level 0 propagates switched-off variables: a unit a makes g and h
	// level-0 facts, visible once they are switched on again.
	s.SetDecision(g, false)
	s.SetDecision(h, false)
	s.AddClause(lit(a))
	if s.assigns[g] != vTrue || s.vars[g].level != 0 || s.assigns[h] != vTrue || s.vars[h].level != 0 {
		t.Fatal("level 0 did not propagate the switched-off chain")
	}
}

// toyInstance is a small one-sided Tseitin instance of the shape the SMT
// contexts build: atom variables, gates defined only by (¬gate ∨ …) clauses
// over their children (shared between formulas, as the context's encoding
// memo shares structure), and extra clauses over atoms only (the theory
// lemmas). The same clauses go into two solvers: one whose gates are
// switched off outside each probe's cone, and one with every variable on.
type toyInstance struct {
	rng     *rand.Rand
	cone    *Solver
	allOn   *Solver
	atoms   []int
	kids    map[int][]int // gate → gate children
	gates   []int
	clauses [][]Lit
}

func (ti *toyInstance) newVar() int {
	v := ti.cone.NewVar()
	if w := ti.allOn.NewVar(); w != v {
		panic("solvers out of step")
	}
	return v
}

func (ti *toyInstance) add(c ...Lit) {
	ti.clauses = append(ti.clauses, append([]Lit(nil), c...))
	ti.cone.AddClause(c...)
	ti.allOn.AddClause(c...)
}

// formula returns the root literal of a fresh random formula: an atom
// literal, an existing gate, or a new And/Or gate over random children.
func (ti *toyInstance) formula(depth int) Lit {
	r := ti.rng
	if depth == 0 || r.Intn(4) == 0 {
		if len(ti.gates) > 0 && r.Intn(3) == 0 {
			return lit(ti.gates[r.Intn(len(ti.gates))])
		}
		return MkLit(ti.atoms[r.Intn(len(ti.atoms))], r.Intn(2) == 0)
	}
	children := make([]Lit, 1+r.Intn(3))
	for i := range children {
		children[i] = ti.formula(depth - 1)
	}
	g := ti.newVar()
	if r.Intn(2) == 0 {
		for _, c := range children {
			ti.add(nlit(g), c)
		}
	} else {
		ti.add(append([]Lit{nlit(g)}, children...)...)
	}
	for _, c := range children {
		if _, isGate := ti.kids[c.Var()]; isGate {
			ti.kids[g] = append(ti.kids[g], c.Var())
		}
	}
	if ti.kids[g] == nil {
		ti.kids[g] = []int{}
	}
	ti.gates = append(ti.gates, g)
	ti.cone.SetDecision(g, false)
	return lit(g)
}

// switchCone switches on exactly the gates the assumptions reach.
func (ti *toyInstance) switchCone(assumps []Lit) {
	for _, g := range ti.gates {
		ti.cone.SetDecision(g, false)
	}
	var stack []int
	for _, a := range assumps {
		stack = append(stack, a.Var())
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if kids, isGate := ti.kids[v]; isGate && !ti.cone.Decision(v) {
			ti.cone.SetDecision(v, true)
			stack = append(stack, kids...)
		}
	}
}

// TestDecisionConeMatchesAllOn is the randomized property test behind
// SetDecision's precondition: on persistent one-sided Tseitin instances,
// probes under assumptions with every gate outside the assumptions' cone
// switched off answer exactly as the all-on instance does; on Sat the model
// satisfies every problem clause, with every unassigned switched-off
// variable false; and no switched-off variable is ever on the trail above
// level 0.
func TestDecisionConeMatchesAllOn(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	probes, sats := 0, 0
	for inst := 0; inst < 150; inst++ {
		ti := &toyInstance{rng: rng, cone: New(), allOn: New(), kids: map[int][]int{}}
		ti.cone.MaxLearnts = 8 // exercise reduceDB across switched cones
		for i := 0; i < 4+rng.Intn(5); i++ {
			ti.atoms = append(ti.atoms, ti.newVar())
		}
		for p := 0; p < 30; p++ {
			if rng.Intn(3) == 0 {
				// A "theory lemma": a clause over atoms only.
				c := make([]Lit, 1+rng.Intn(3))
				for i := range c {
					c[i] = MkLit(ti.atoms[rng.Intn(len(ti.atoms))], rng.Intn(2) == 0)
				}
				ti.add(c...)
			}
			assumps := make([]Lit, 1+rng.Intn(2))
			for i := range assumps {
				assumps[i] = ti.formula(1 + rng.Intn(3))
			}
			ti.switchCone(assumps)
			want := ti.allOn.Solve(assumps...)
			got := ti.cone.Solve(assumps...)
			probes++
			if got != want {
				t.Fatalf("instance %d probe %d: cone search %v, all-on search %v", inst, p, got, want)
			}
			if got != Sat {
				continue
			}
			sats++
			for i, l := range ti.cone.trail {
				if ti.cone.vars[l.Var()].level > 0 && !ti.cone.Decision(l.Var()) {
					t.Fatalf("instance %d probe %d: switched-off variable %d on the trail at position %d, level %d",
						inst, p, l.Var(), i, ti.cone.vars[l.Var()].level)
				}
			}
			m := ti.cone.Model()
			for v, d := range ti.cone.vars {
				if !d.decision && ti.cone.assigns[v] == unassigned && m[v] {
					t.Fatalf("instance %d probe %d: unassigned switched-off variable %d reads true", inst, p, v)
				}
			}
			for _, a := range assumps {
				if m[a.Var()] == a.Neg() {
					t.Fatalf("instance %d probe %d: model violates assumption %v", inst, p, a)
				}
			}
		clauses:
			for _, c := range ti.clauses {
				for _, l := range c {
					if m[l.Var()] != l.Neg() {
						continue clauses
					}
				}
				t.Fatalf("instance %d probe %d: model falsifies problem clause %v", inst, p, c)
			}
		}
	}
	if sats == 0 || sats == probes {
		t.Fatalf("degenerate sweep: %d of %d probes sat", sats, probes)
	}
	t.Logf("%d probes, %d sat", probes, sats)
}
