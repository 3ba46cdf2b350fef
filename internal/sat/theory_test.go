package sat

import (
	"math/rand"
	"testing"
)

// cubeTheory is a test theory that forbids a fixed list of cubes (literal
// conjunctions) over switched-on variables: Check returns the negation of
// the first cube the assignment makes true. It gives up once a probe has
// found more than limit conflicts, and tallies how the solver must resolve
// each lemma it returns.
type cubeTheory struct {
	cubes [][]Lit
	limit int

	conflicts int  // this probe's
	gaveUp    bool // this probe's

	asserting, analyzed, rootFalse, units int
}

func (th *cubeTheory) Check(s *Solver) ([]Lit, bool) {
	for _, cb := range th.cubes {
		hit := true
		for _, l := range cb {
			if s.litValue(l) != vTrue {
				hit = false
				break
			}
		}
		if !hit {
			continue
		}
		if th.conflicts == th.limit {
			th.gaveUp = true
			return nil, false
		}
		th.conflicts++
		lemma := make([]Lit, len(cb))
		top, atTop, open := int32(0), 0, 0
		for i, l := range cb {
			lemma[i] = l.Not()
			switch lv := s.level[l.Var()]; {
			case lv == 0:
			case lv > top:
				top, atTop = lv, 1
				open++
			case lv == top:
				atTop++
				open++
			default:
				open++
			}
		}
		switch {
		case open == 0:
			th.rootFalse++
		case open == 1:
			th.units++
		case atTop == 1:
			th.asserting++
		default:
			th.analyzed++
		}
		return lemma, true
	}
	return nil, true
}

// TestTheoryHookAgainstBruteForce runs persistent solvers with a cube theory
// attached through long sequences of selector-assumption probes, with a
// learnt bound small enough to force reduceDB sweeps and arena compactions
// and some variables switched off, and checks every answer against the
// enumerated models of the clauses plus the cubes' negations: the verdict
// matches, a Sat model satisfies every clause and assumption and makes no
// cube true, an Unsat core is unsatisfiable with the clauses and the cubes,
// and a probe whose theory gave up answers Unknown. The arena invariants are
// checked after every probe.
func TestTheoryHookAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var total cubeTheory
	compactions, probes, unknowns := 0, 0, 0
	for inst := 0; inst < 24; inst++ {
		// Variables: a pigeonhole family with one selector per pigeon (the
		// theory's cubes range over its placement variables), then nOff
		// that occur in clauses only negatively, so setting them false
		// extends any model: switching them off keeps every verdict.
		pigeons, holes, nOff := 5+rng.Intn(2), 4, 3
		nBase, clauses := pigeonClauses(pigeons, holes)
		nPlace := pigeons * holes
		nVars := nBase + nOff
		off := func(j int) int { return nBase + j }
		for j := 0; j < nOff; j++ {
			clauses = append(clauses, append([]Lit{MkLit(off(j), true)}, randomClause(rng, nPlace, 2)...))
		}
		th := &cubeTheory{}
		// Mostly placements of two or three pigeons the theory forbids
		// together, so lemmas cut into the pigeonhole search.
		for i := 0; i < 20+rng.Intn(20); i++ {
			cb := randomClause(rng, nPlace, 2+rng.Intn(2))
			for k := range cb {
				cb[k] = MkLit(cb[k].Var(), rng.Intn(4) == 0)
			}
			th.cubes = append(th.cubes, cb)
		}
		all := clauses
		for _, cb := range th.cubes {
			neg := make([]Lit, len(cb))
			for i, l := range cb {
				neg[i] = l.Not()
			}
			all = append(all, neg)
		}
		m := enumerate(nVars, all)

		s := New()
		s.MaxLearnts = 2 + rng.Intn(3)
		s.FixedPolarity = inst%2 == 1
		s.Theory = th
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
	probe:
		for p := 0; p < 80; p++ {
			switch {
			case p%10 == 9:
				// A random clause, now and then a unit, so some lemmas
				// have literals false at level 0.
				c := randomClause(rng, nPlace, 1+rng.Intn(2))
				m = m.addClause(c)
				if !s.AddClause(c...) {
					break probe
				}
			case p == 70 && inst%4 == 0:
				// Two level-0 facts the theory forbids together, checked
				// first: the next lemma is false at level 0.
				u := randomClause(rng, nPlace, 2)
				th.cubes = append([][]Lit{u}, th.cubes...)
				m = m.addClause([]Lit{u[0].Not(), u[1].Not()})
				for _, l := range u {
					m = m.addClause([]Lit{l})
					if !s.AddClause(l) {
						break probe
					}
				}
			}
			for j := 0; j < nOff; j++ {
				s.SetDecision(off(j), rng.Intn(2) == 0)
			}
			var assume []Lit
			for q := 0; q < pigeons; q++ {
				if rng.Intn(4) != 0 {
					assume = append(assume, MkLit(nPlace+q, false))
				}
			}
			assume = append(assume, randomClause(rng, nPlace, rng.Intn(3))...)
			th.conflicts, th.gaveUp = 0, false
			th.limit = 1 << 30
			if rng.Intn(5) == 0 {
				th.limit = rng.Intn(3)
			}
			s.maxLearnts = 0 // restart the adaptive bound: every probe reduces early
			st, core := s.SolveAssuming(assume...)
			probes++
			checkArena(t, s)
			if th.gaveUp != (st == Unknown) {
				t.Fatalf("instance %d probe %d: verdict %v, theory gave up: %v", inst, p, st, th.gaveUp)
			}
			if st == Unknown {
				unknowns++
				continue
			}
			if want := m.under(assume); (st == Sat) != want {
				t.Fatalf("instance %d probe %d: verdict %v, brute force sat=%v", inst, p, st, want)
			}
			switch {
			case st == Sat:
				var a uint64
				for v, b := range s.Model() {
					if b {
						a |= 1 << v
					}
				}
				if !satisfiesAll(a, assume) || !m.contains(a) {
					t.Fatalf("instance %d probe %d: model violates a clause, a cube or an assumption", inst, p)
				}
			case core != nil:
				if m.under(core) {
					t.Fatalf("instance %d probe %d: core %v is satisfiable with the clauses and cubes", inst, p, core)
				}
			default:
				if len(m) > 0 {
					t.Fatalf("instance %d probe %d: Unsat without a core on satisfiable clauses and cubes", inst, p)
				}
			}
		}
		compactions += s.compactions
		total.asserting += th.asserting
		total.analyzed += th.analyzed
		total.rootFalse += th.rootFalse
		total.units += th.units
	}
	t.Logf("%d probes (%d gave up), %d compactions; lemmas: %d asserting, %d analyzed, %d units, %d false at level 0",
		probes, unknowns, compactions, total.asserting, total.analyzed, total.units, total.rootFalse)
	if compactions < 10 || unknowns == 0 || total.asserting == 0 || total.analyzed == 0 || total.units == 0 || total.rootFalse == 0 {
		t.Fatal("the sweep does not exercise compaction, giving up, and every way of resolving a lemma")
	}
}
