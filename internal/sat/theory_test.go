package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// cubeTheory is a test theory that forbids the cubes (literal conjunctions)
// of a shared list over switched-on variables. A final-check theory
// (incremental false) returns, in Check, the negation of the first cube the
// full assignment makes true, and ignores Assert and Backtrack. An
// incremental one keeps its own copy of the trail from what Assert hands it
// and what Backtrack takes back, fails the test whenever that copy differs
// from the solver's trail, and returns, in Assert, the negation of the first
// cube made true by the literals just handed to it (and in Check any cube a
// probe that gave up left true at level 0). Either gives up once a
// probe has found more than limit conflicts, and tallies how the solver must
// resolve each lemma it returns.
type cubeTheory struct {
	t           *testing.T
	cubes       *[][]Lit
	incremental bool
	limit       int
	trail       []Lit // an incremental theory's copy of the solver's trail
	s           *Solver

	conflicts int  // this probe's
	gaveUp    bool // this probe's

	asserting, analyzed, rootFalse, units, backtracks int
}

func (th *cubeTheory) sameTrail(s *Solver, at string) {
	if !slices.Equal(th.trail, s.trail) {
		th.t.Fatalf("%s: the theory's trail copy (%d entries) differs from the solver's (%d)", at, len(th.trail), len(s.trail))
	}
}

func (th *cubeTheory) Assert(s *Solver, from int, lits []Lit) ([]Lit, bool) {
	if !th.incremental {
		return nil, true
	}
	if from != len(th.trail) {
		th.t.Fatalf("Assert from %d, but the theory has seen %d entries", from, len(th.trail))
	}
	th.trail = append(th.trail, lits...)
	th.sameTrail(s, "Assert")
	for _, l := range lits {
		if s.vars[l.Var()].level != int32(len(s.trailLim)) {
			th.t.Fatalf("Assert handed literal %d of level %d at level %d", l, s.vars[l.Var()].level, len(s.trailLim))
		}
	}
	return th.forbid(s, lits)
}

func (th *cubeTheory) Backtrack(n int) {
	if !th.incremental {
		return
	}
	if n > len(th.trail) {
		th.t.Fatalf("Backtrack to %d, but the theory has seen only %d entries", n, len(th.trail))
	}
	th.trail = th.trail[:n]
	th.backtracks++
	if !slices.Equal(th.trail, th.s.trail[:n]) {
		th.t.Fatalf("Backtrack to %d: the theory's trail copy differs from the solver's", n)
	}
}

func (th *cubeTheory) Check(s *Solver) ([]Lit, bool) {
	if th.incremental {
		th.sameTrail(s, "Check")
	}
	return th.forbid(s, nil)
}

// forbid returns the negation of the first cube the assignment makes true,
// among those with a literal in fresh unless fresh is nil.
func (th *cubeTheory) forbid(s *Solver, fresh []Lit) ([]Lit, bool) {
	for _, cb := range *th.cubes {
		hit, touched := true, fresh == nil
		for _, l := range cb {
			if s.litValue(l) != vTrue {
				hit = false
				break
			}
			touched = touched || slices.Contains(fresh, l)
		}
		if !hit || !touched {
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
			switch lv := s.vars[l.Var()].level; {
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

// TestTheoryHookAgainstBruteForce runs persistent solvers with a final-check
// cube theory attached through long sequences of selector-assumption
// probes, with a learnt bound small enough to force reduceDB sweeps and
// arena compactions and some variables switched off, and checks every
// answer against the enumerated models of the clauses plus the cubes'
// negations: the verdict matches, a Sat model satisfies every clause and
// assumption and makes no cube true, an Unsat core is unsatisfiable with the
// clauses and the cubes, and a probe whose theory gave up answers Unknown.
// The arena invariants are checked after every probe.
func TestTheoryHookAgainstBruteForce(t *testing.T) {
	theorySweep(t, 41, false)
}

// TestTheoryAssertAgainstBruteForce is TestTheoryHookAgainstBruteForce with
// incremental cube theories, which forbid cubes through Assert and check
// their trail copies against the solver's at every call. Now and then a
// probe runs with no theory attached, the way the offline DPLL(T) oracle
// detaches it, and between probes the solver switches between two theories
// over the same cubes: each must resume on the trail it was last told of.
//
// The sweep's probes are too small to restart, so last an incremental
// theory forbidding a few placements rides along a pigeonhole refutation
// (eight pigeons, seven holes) long enough to restart many times.
func TestTheoryAssertAgainstBruteForce(t *testing.T) {
	theorySweep(t, 63, true)

	rng := rand.New(rand.NewSource(44))
	nVars, clauses := pigeonClauses(8, 7)
	var cubes [][]Lit
	for i := 0; i < 10; i++ {
		cubes = append(cubes, []Lit{MkLit(rng.Intn(8*7), false), MkLit(rng.Intn(8*7), false)})
	}
	s := New()
	s.MaxLearnts = 200
	th := &cubeTheory{t: t, cubes: &cubes, incremental: true, limit: 1 << 30, s: s}
	s.Theory = th
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		s.AddClause(c...)
	}
	var all []Lit
	for p := 0; p < 8; p++ {
		all = append(all, MkLit(8*7+p, false))
	}
	if st, _ := s.SolveAssuming(all...); st != Unsat {
		t.Fatalf("eight pigeons in seven holes: %v", st)
	}
	if s.Stats.Restarts < 3 || th.conflicts == 0 {
		t.Fatalf("the refutation made %d restarts and %d theory conflicts", s.Stats.Restarts, th.conflicts)
	}
	t.Logf("refutation: %d restarts, %d conflicts, %d of them the theory's", s.Stats.Restarts, s.Stats.Conflicts, th.conflicts)
}

func theorySweep(t *testing.T, seed int64, incremental bool) {
	rng := rand.New(rand.NewSource(seed))
	var total cubeTheory
	compactions, probes, unknowns, detached := 0, 0, 0, 0
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
		var cubes [][]Lit
		// Mostly placements of two or three pigeons the theory forbids
		// together, so lemmas cut into the pigeonhole search.
		for i := 0; i < 20+rng.Intn(20); i++ {
			cb := randomClause(rng, nPlace, 2+rng.Intn(2))
			for k := range cb {
				cb[k] = MkLit(cb[k].Var(), rng.Intn(4) == 0)
			}
			cubes = append(cubes, cb)
		}
		all := clauses
		for _, cb := range cubes {
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
		ths := []*cubeTheory{
			{t: t, cubes: &cubes, incremental: incremental, s: s},
			{t: t, cubes: &cubes, incremental: incremental, s: s},
		}
		th := ths[0]
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
				cubes = append([][]Lit{u}, cubes...)
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
			if incremental {
				if rng.Intn(6) == 0 {
					// Detached: the clauses alone decide, and the trail the
					// theory knows is cut and regrown behind its back.
					s.Theory = nil
					s.SolveAssuming(randomClause(rng, nPlace, 1+rng.Intn(3))...)
					s.Theory = th
					detached++
				}
				if rng.Intn(5) == 0 {
					th = ths[1-slices.Index(ths, th)]
					s.Theory = th
				}
			}
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
		for _, th := range ths {
			total.asserting += th.asserting
			total.analyzed += th.analyzed
			total.rootFalse += th.rootFalse
			total.units += th.units
			total.backtracks += th.backtracks
		}
	}
	t.Logf("%d probes (%d gave up, %d detached solves), %d compactions, %d backtracks told; lemmas: %d asserting, %d analyzed, %d units, %d false at level 0",
		probes, unknowns, detached, compactions, total.backtracks, total.asserting, total.analyzed, total.units, total.rootFalse)
	if compactions < 10 || unknowns == 0 || total.asserting == 0 || total.analyzed == 0 || total.units == 0 || total.rootFalse == 0 {
		t.Fatal("the sweep does not exercise compaction, giving up, and every way of resolving a lemma")
	}
	if incremental && (detached == 0 || total.backtracks == 0) {
		t.Fatal("the sweep does not exercise detaching the theory and backtracking it")
	}
}
