package smt

import (
	"runtime"
	"testing"

	"repro/internal/logic"
)

// strashProbe builds, from fresh backing slices on every call, the ground
// formula (x < y ∧ A[i] ≥ 0 ∧ f(x) ≠ y) ∨ ¬(y ≤ z) ∨ (z < x ⇒ i > n).
func strashProbe() logic.Formula {
	return logic.Or{Fs: []logic.Formula{
		logic.And{Fs: []logic.Formula{
			logic.LtF(px, py),
			logic.GeF(logic.Sel(pA, pi), logic.I(0)),
			logic.NeqF(logic.Apply{F: "f", Args: []logic.Term{px}}, py),
		}},
		logic.Not{F: logic.LeF(py, pz)},
		logic.Implies{A: logic.LtF(pz, px), B: logic.GtF(pi, pn)},
	}}
}

// TestStrashReencodeAddsNothing: a structurally equal ground formula built
// anew (no slice shared with the first) resolves to the same literal and
// grows the context's SAT instance by no variable and no clause.
func TestStrashReencodeAddsNothing(t *testing.T) {
	c := NewSolver(Options{}).NewContext()
	first, firstAtoms := c.encNode(strashProbe())
	vars, clauses := c.sat.NumVars(), c.sat.NumClauses()
	again, againAtoms := c.encNode(strashProbe())
	if again != first {
		t.Fatalf("re-encoding gave literal %v, first encoding %v", again, first)
	}
	if c.sat.NumVars() != vars || c.sat.NumClauses() != clauses {
		t.Fatalf("re-encoding grew the instance from %d vars / %d clauses to %d / %d",
			vars, clauses, c.sat.NumVars(), c.sat.NumClauses())
	}
	if len(firstAtoms) == 0 || len(againAtoms) != len(firstAtoms) {
		t.Fatalf("atom sets %v then %v", firstAtoms, againAtoms)
	}
	for i := range firstAtoms {
		if againAtoms[i] != firstAtoms[i] {
			t.Fatalf("atom sets %v then %v", firstAtoms, againAtoms)
		}
	}
}

// TestStrashSharesGates: (x < y ∧ ¬(y ≤ z)) and (y > x ∧ z < y) differ as
// formulas, but their children ground to the same atom literals, so the
// second conjunction reuses the first one's gate.
func TestStrashSharesGates(t *testing.T) {
	c := NewSolver(Options{}).NewContext()
	a, _ := c.encNode(logic.And{Fs: []logic.Formula{logic.LtF(px, py), logic.Not{F: logic.LeF(py, pz)}}})
	vars, clauses := c.sat.NumVars(), c.sat.NumClauses()
	b, _ := c.encNode(logic.And{Fs: []logic.Formula{logic.GtF(py, px), logic.LtF(pz, py)}})
	if a != b {
		t.Fatalf("equal-literal conjunctions got gates %v and %v", a, b)
	}
	if c.sat.NumVars() != vars || c.sat.NumClauses() != clauses {
		t.Fatalf("the second conjunction grew the instance from %d vars / %d clauses to %d / %d",
			vars, clauses, c.sat.NumVars(), c.sat.NumClauses())
	}
	if or, _ := c.encNode(logic.Or{Fs: []logic.Formula{logic.LtF(px, py), logic.GtF(py, pz)}}); or == a {
		t.Fatal("a disjunction over the same literals shared the conjunction's gate")
	}
}

// TestStrashInternBounded: encoding a context probe interns nothing, so a
// sweep of probes grows the global intern table by a per-probe amount (the
// validity-cache key and the grounding plan's fill) that does not depend on
// how large each probe's ground formula is.
func TestStrashInternBounded(t *testing.T) {
	skel := logic.Imp(logic.Conj(pu, logic.LtF(pi, pn)), pv)
	sweep := func(width int) int64 {
		s := NewSolver(Options{})
		ctx := s.ContextFor(logic.Intern(skel))
		const probes = 20
		runtime.GC()
		before := logic.InternedCount()
		for p := 0; p < probes; p++ {
			// Two fill predicates whatever the width: an atom, and a
			// disjunction of width conjunctions of two atoms. No other probe
			// uses them, so every probe misses the validity cache.
			ds := make([]logic.Formula, width)
			for k := range ds {
				off := logic.I(int64(1000*p + k))
				ds[k] = logic.Conj(logic.LeF(pi, logic.Plus(pn, off)), logic.LtF(px, logic.Plus(py, off)))
			}
			u := logic.Conj(logic.LeF(pz, logic.Plus(pn, logic.I(int64(p)))), logic.Disj(ds...))
			fill := map[string]logic.Formula{"u": u, "v": logic.LtF(px, logic.Plus(pz, logic.I(int64(p))))}
			ctx.ValidFill(logic.FillUnknowns(skel, fill), fill)
		}
		if s.NumAssumptionProbes() != probes {
			t.Fatalf("width %d: %d of %d probes went through the context", width, s.NumAssumptionProbes(), probes)
		}
		return logic.InternedCount() - before
	}
	narrow, wide := sweep(2), sweep(32)
	t.Logf("interned per sweep: %d at width 2, %d at width 32", narrow, wide)
	if wide > narrow+narrow/4 {
		t.Fatalf("a sweep of width-32 probes interned %d formulas, width-2 probes %d: interning grows with the ground formula", wide, narrow)
	}
}
