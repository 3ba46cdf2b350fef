package sat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkArena verifies the clause arena's invariants: the arena is a
// sequence of whole clauses; the deleted ones account for exactly the
// wasted words and, after any reduceDB, at most half of the arena; every
// clause, learnt, watcher and reason refers to the start of a live clause;
// and the live clauses are exactly clauses ∪ learnts, so the arena holds
// nothing but their words and the counted waste.
func checkArena(t *testing.T, s *Solver) {
	t.Helper()
	starts := map[cref]bool{}
	wasted := 0
	for c := cref(0); int(c) < len(s.arena); c += cref(s.words(c)) {
		if int(c)+s.words(c) > len(s.arena) {
			t.Fatalf("clause at %d overruns the arena (%d words)", c, len(s.arena))
		}
		if s.deleted(c) {
			wasted += s.words(c)
		} else {
			starts[c] = true
		}
	}
	if wasted != s.wasted {
		t.Fatalf("deleted clauses hold %d words, wasted counts %d", wasted, s.wasted)
	}
	if s.Stats.Reduces > 0 && 2*s.wasted > len(s.arena) {
		t.Fatalf("%d of %d arena words wasted after reduceDB", s.wasted, len(s.arena))
	}
	live := func(what string, c cref) {
		t.Helper()
		if !starts[c] {
			t.Fatalf("%s refers to %d, not a live clause", what, c)
		}
	}
	listed := map[cref]bool{}
	for _, c := range s.clauses {
		live("clause", c)
		if s.learnt(c) {
			t.Fatalf("problem clause %d is marked learnt", c)
		}
		listed[c] = true
	}
	for _, c := range s.learnts {
		live("learnt", c)
		if !s.learnt(c) {
			t.Fatalf("learnt clause %d is not marked learnt", c)
		}
		listed[c] = true
	}
	if len(listed) != len(starts) {
		t.Fatalf("%d live clauses in the arena, %d in clauses and learnts", len(starts), len(listed))
	}
	for l, ws := range s.watches {
		for _, w := range ws {
			live("watcher", w.c)
			if lits := s.lits(w.c); lits[0].Not() != Lit(l) && lits[1].Not() != Lit(l) {
				t.Fatalf("watcher of literal %d on clause %d watches neither %v nor %v", l, w.c, lits[0], lits[1])
			}
		}
	}
	for v, d := range s.vars {
		r := d.reason
		if r == noReason {
			continue
		}
		live("reason", r)
		if s.assigns[v] == unassigned || s.lits(r)[0].Var() != v {
			t.Fatalf("reason %d of variable %d does not imply it", r, v)
		}
	}
}

// models lists every model (bit v = variable v) of a clause set, in
// increasing order; addClause narrows it.
type models []uint64

// enumerate lists every model of the clauses over nVars ≤ 64 variables by
// depth-first search over the variables in index order, pruning a partial
// assignment as soon as it falsifies a clause whose variables it fixes.
func enumerate(nVars int, clauses [][]Lit) models {
	last := make([][][]Lit, nVars) // clauses by their highest variable
	for _, c := range clauses {
		top := 0
		for _, l := range c {
			top = max(top, l.Var())
		}
		last[top] = append(last[top], c)
	}
	var out models
	var dfs func(v int, a uint64)
	dfs = func(v int, a uint64) {
		if v == nVars {
			out = append(out, a)
			return
		}
		for _, b := range []uint64{0, 1} {
			a := a | b<<v
			ok := true
			for _, c := range last[v] {
				if !satisfies(a, c) {
					ok = false
					break
				}
			}
			if ok {
				dfs(v+1, a)
			}
		}
	}
	dfs(0, 0)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m models) addClause(c []Lit) models {
	out := m[:0]
	for _, a := range m {
		if satisfies(a, c) {
			out = append(out, a)
		}
	}
	return out
}

// under reports whether some model makes every literal of fixed true.
func (m models) under(fixed []Lit) bool {
	for _, a := range m {
		if satisfiesAll(a, fixed) {
			return true
		}
	}
	return false
}

func (m models) contains(a uint64) bool {
	i := sort.Search(len(m), func(i int) bool { return m[i] >= a })
	return i < len(m) && m[i] == a
}

// satisfies reports whether assignment a makes some literal of c true.
func satisfies(a uint64, c []Lit) bool {
	for _, l := range c {
		if (a>>l.Var()&1 == 1) != l.Neg() {
			return true
		}
	}
	return false
}

// satisfiesAll reports whether assignment a makes every literal true.
func satisfiesAll(a uint64, lits []Lit) bool {
	for _, l := range lits {
		if !satisfies(a, []Lit{l}) {
			return false
		}
	}
	return true
}

// pigeonClauses is a pigeonhole family with one selector per pigeon:
// variable p*holes+h says pigeon p sits in hole h, variable
// pigeons*holes+p selects pigeon p, and the clauses say every selected
// pigeon sits in some hole and no hole holds two pigeons. Selecting more
// pigeons than there are holes is unsatisfiable, and refuting it takes
// resolution many steps, so a small instance still costs many conflicts.
func pigeonClauses(pigeons, holes int) (nVars int, clauses [][]Lit) {
	x := func(p, h int) int { return p*holes + h }
	sel := func(p int) int { return pigeons*holes + p }
	for p := 0; p < pigeons; p++ {
		c := []Lit{MkLit(sel(p), true)}
		for h := 0; h < holes; h++ {
			c = append(c, MkLit(x(p, h), false))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				clauses = append(clauses, []Lit{MkLit(x(p, h), true), MkLit(x(q, h), true)})
			}
		}
	}
	return pigeons*holes + pigeons, clauses
}

// TestCompactionAgainstBruteForce runs persistent solvers with a learnt
// bound small enough to force many reduceDB sweeps and arena compactions
// through long sequences of assumption probes and clause additions, and
// checks every answer against the instance's enumerated models: a Sat model
// satisfies every clause and assumption, an Unsat core is unsatisfiable
// with the clauses, and an Unsat verdict without a core means the clauses
// alone are unsatisfiable. The arena invariants are checked after every
// probe.
func TestCompactionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	compactions, probes, conflicts := 0, 0, int64(0)
	for inst := 0; inst < 12; inst++ {
		pigeons, holes := 5+rng.Intn(2), 4
		nVars, clauses := pigeonClauses(pigeons, holes)
		m := enumerate(nVars, clauses)
		s := New()
		s.MaxLearnts = 2 + rng.Intn(3)
		s.FixedPolarity = inst%2 == 1
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		// The last core, and a copy: later AddClause and analyze calls
		// fill the solver's scratch buffer, which the core must not alias.
		var lastCore, lastCopy []Lit
		for p := 0; p < 150; p++ {
			if p%30 == 29 {
				// A random clause over the placement variables.
				c := randomClause(rng, pigeons*holes, 3)
				m = m.addClause(c)
				if !s.AddClause(c...) {
					break
				}
			}
			var assume []Lit
			for q := 0; q < pigeons; q++ {
				if rng.Intn(4) != 0 {
					assume = append(assume, MkLit(pigeons*holes+q, false))
				}
			}
			assume = append(assume, randomClause(rng, pigeons*holes, rng.Intn(3))...)
			rng.Shuffle(len(assume), func(i, j int) { assume[i], assume[j] = assume[j], assume[i] })
			s.maxLearnts = 0 // restart the adaptive bound: every probe reduces early
			st, core := s.SolveAssuming(assume...)
			probes++
			checkArena(t, s)
			if !slices.Equal(lastCore, lastCopy) {
				t.Fatalf("instance %d probe %d: an earlier core changed from %v to %v", inst, p, lastCopy, lastCore)
			}
			if core != nil {
				lastCore, lastCopy = core, slices.Clone(core)
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
					t.Fatalf("instance %d probe %d: model violates a clause or assumption", inst, p)
				}
			case core != nil:
				if m.under(core) {
					t.Fatalf("instance %d probe %d: core %v is satisfiable with the clauses", inst, p, core)
				}
			default:
				if len(m) > 0 {
					t.Fatalf("instance %d probe %d: Unsat without a core on satisfiable clauses", inst, p)
				}
			}
		}
		compactions += s.compactions
		conflicts += s.Stats.Conflicts
	}
	t.Logf("%d probes, %d conflicts, %d compactions", probes, conflicts, compactions)
	if compactions < 100 {
		t.Fatalf("only %d compactions in %d probes; the sweep does not exercise compaction", compactions, probes)
	}
}
