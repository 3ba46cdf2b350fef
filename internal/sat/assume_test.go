package sat

import (
	"math/rand"
	"testing"
)

// TestSolveReuseSatUnsatSat is the regression test for the stale
// assumption-conflict state bug: one solver reused across Sat → Unsat (by
// assumptions) → Sat must answer each query independently, with the Unsat
// call leaving no residue (core, mid-level trail) behind.
func TestSolveReuseSatUnsatSat(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(nlit(a), lit(b))
	s.AddClause(nlit(b), lit(c))

	if st := s.Solve(lit(a)); st != Sat {
		t.Fatalf("first probe: got %v, want sat", st)
	}
	st, core := s.SolveAssuming(lit(a), nlit(c))
	if st != Unsat {
		t.Fatalf("second probe: got %v, want unsat", st)
	}
	if len(core) == 0 {
		t.Fatal("assumption-unsat probe returned no core")
	}
	if len(s.trailLim) != 0 {
		t.Fatalf("unsat probe left trail at level %d", len(s.trailLim))
	}
	st, core = s.SolveAssuming(lit(a))
	if st != Sat {
		t.Fatalf("third probe: got %v, want sat", st)
	}
	if core != nil {
		t.Fatalf("sat probe carried a stale core %v", core)
	}
	if !s.Value(a) || !s.Value(b) || !s.Value(c) {
		t.Error("model should satisfy a→b→c with a assumed")
	}
}

// TestSolveAssumingCoreSubset checks the core is a subset of the assumptions
// and actually unsatisfiable: re-solving under only the core literals must
// still be unsat (cores are sound — any superset of a core is unsat too).
func TestSolveAssumingCoreSubset(t *testing.T) {
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	// a ∧ b is contradictory; c and d are free.
	s.AddClause(nlit(a), nlit(b))

	assumptions := []Lit{lit(c), lit(a), lit(d), lit(b)}
	st, core := s.SolveAssuming(assumptions...)
	if st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	inAssumptions := map[Lit]bool{}
	for _, l := range assumptions {
		inAssumptions[l] = true
	}
	for _, l := range core {
		if !inAssumptions[l] {
			t.Fatalf("core literal %v is not an assumption", l)
		}
	}
	if len(core) > 2 {
		t.Errorf("core %v should only involve a and b", core)
	}
	if st, _ := s.SolveAssuming(core...); st != Unsat {
		t.Error("re-solving under the core alone should stay unsat")
	}
	// Dropping any single core literal must make the probe satisfiable:
	// the core {a, b} is minimal for this instance.
	for i := range core {
		rest := append(append([]Lit(nil), core[:i]...), core[i+1:]...)
		if st, _ := s.SolveAssuming(rest...); st != Sat {
			t.Errorf("core minus %v should be sat", core[i])
		}
	}
}

// TestSolveAssumingPropagatedConflict exercises analyzeFinal through a
// propagation chain: the falsified assumption is implied transitively, so the
// core must be traced through reason clauses, not read off the trail directly.
func TestSolveAssumingPropagatedConflict(t *testing.T) {
	s := New()
	const n = 20
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(nlit(vars[i]), lit(vars[i+1])) // x_i → x_{i+1}
	}
	free := s.NewVar()
	st, core := s.SolveAssuming(lit(free), lit(vars[0]), nlit(vars[n-1]))
	if st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	for _, l := range core {
		if l.Var() == free {
			t.Fatalf("core %v contains the irrelevant assumption", core)
		}
	}
	if len(core) != 2 {
		t.Errorf("core %v should be {x0, ¬x%d}", core, n-1)
	}
}

// TestSolveAssumingContradictoryAssumptions: a and ¬a in the assumption list
// conflict with each other without any clauses involved.
func TestSolveAssumingContradictoryAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.NewVar()
	st, core := s.SolveAssuming(lit(a), nlit(a))
	if st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if len(core) != 2 {
		t.Fatalf("core %v should be exactly {a, ¬a}", core)
	}
	if st, _ := s.SolveAssuming(core...); st != Unsat {
		t.Error("core should be unsat on its own")
	}
}

// TestSolveAssumingLevelZeroConflict: an assumption contradicted by a unit
// clause (level 0) yields the singleton core, and the instance itself stays
// satisfiable.
func TestSolveAssumingLevelZeroConflict(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(nlit(a))
	st, core := s.SolveAssuming(lit(a))
	if st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if len(core) != 1 || core[0] != lit(a) {
		t.Fatalf("core = %v, want [a]", core)
	}
	if st, _ := s.SolveAssuming(); st != Sat {
		t.Error("instance without assumptions should be sat")
	}
}

// TestSolveAssumingInstanceUnsat: when the clause set itself is unsat the
// verdict carries a nil core — no assumption subset is to blame.
func TestSolveAssumingInstanceUnsat(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(lit(a), lit(b))
	s.AddClause(lit(a), nlit(b))
	s.AddClause(nlit(a), lit(b))
	s.AddClause(nlit(a), nlit(b))
	st, core := s.SolveAssuming(lit(a))
	if st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
	if core != nil {
		t.Errorf("instance-level unsat should have nil core, got %v", core)
	}
}

// TestReduceDB: with MaxLearnts set, a conflict-heavy run keeps the learnt
// database bounded while preserving the verdict.
func TestReduceDB(t *testing.T) {
	// PHP(7,6): enough conflicts to trip the reduction threshold repeatedly.
	const pigeons, holes = 7, 6
	s := New()
	s.MaxLearnts = 20
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		clause := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			clause[h] = lit(v[p][h])
		}
		s.AddClause(clause...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(nlit(v[p1][h]), nlit(v[p2][h]))
			}
		}
	}
	if s.Solve() != Unsat {
		t.Fatal("PHP(7,6) should be unsat")
	}
	if s.Stats.Reduces == 0 {
		t.Error("expected at least one reduceDB sweep")
	}
	if s.Stats.Deleted == 0 {
		t.Error("expected reduceDB to delete clauses")
	}
	// No deleted clause may linger in the kept database or watch lists.
	checkArena(t, s)
}

// TestReusedVsFreshRandom cross-checks a long-lived solver answering randomized
// assumption probes against a fresh solver per probe: verdicts must agree on
// every query, and every reported core must itself be unsat from scratch.
func TestReusedVsFreshRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		nVars := 4 + rng.Intn(8)
		nClauses := 3 + rng.Intn(25)
		clauses := make([][]Lit, nClauses)
		for i := range clauses {
			width := 1 + rng.Intn(3)
			c := make([]Lit, width)
			for j := range c {
				c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			clauses[i] = c
		}
		build := func(maxLearnts int) (*Solver, bool) {
			s := New()
			s.MaxLearnts = maxLearnts
			for i := 0; i < nVars; i++ {
				s.NewVar()
			}
			for _, c := range clauses {
				if !s.AddClause(c...) {
					return s, false
				}
			}
			return s, true
		}
		reused, ok := build(8)
		if !ok {
			continue // instance contradictory at construction; nothing to probe
		}
		for probe := 0; probe < 40; probe++ {
			nAssume := rng.Intn(4)
			assume := make([]Lit, nAssume)
			for i := range assume {
				assume[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			st, core := reused.SolveAssuming(assume...)
			fresh, _ := build(0)
			want := fresh.Solve(assume...)
			if st != want {
				t.Fatalf("round %d probe %d: reused=%v fresh=%v assume=%v clauses=%v",
					round, probe, st, want, assume, clauses)
			}
			if st == Unsat && core != nil {
				coreCheck, _ := build(0)
				if got := coreCheck.Solve(core...); got != Unsat {
					t.Fatalf("round %d probe %d: core %v not unsat from scratch (%v)",
						round, probe, core, got)
				}
			}
		}
	}
}
