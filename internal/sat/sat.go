// Package sat implements a CDCL (conflict-driven clause learning) SAT solver
// with two-literal watching, first-UIP conflict analysis, VSIDS-style
// activity-based branching, phase saving, and geometric restarts.
//
// It serves two roles in the verifier: as the propositional core of the
// online DPLL(T) SMT solver (package smt), and as the backend that solves the
// ψ_Prog encoding of the constraint-based fixed-point algorithm (package cbi,
// §5 of the paper).
//
// A Theory attached to a Solver is consulted inside the search: after each
// propagation fixpoint it is handed the trail literals it has not seen yet,
// on every backjump it is told how much of the trail survives, and once
// every switched-on variable is assigned it makes a final check. At each of
// the first and the last it may return a lemma the assignment falsifies. The
// solver keeps the lemma as a problem clause and resolves it in place, by
// backjumping and conflict analysis as for any other conflict, so a theory
// conflict costs a backjump rather than a new search from level 0.
package sat

import (
	"math"
	"slices"
	"sort"
)

// Lit is a literal: variable v (0-based) with sign. The positive literal of v
// is 2v, the negative literal is 2v+1.
type Lit int32

// MkLit builds a literal from a variable index and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

// Solver verdicts. Unknown is SolveAssuming's answer when the attached
// Theory gave up.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// restart is search's answer when its conflict budget ran out: SolveAssuming
// restarts it with a larger budget. It never leaves the package.
const restart Status = -1

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type value int8

const (
	unassigned value = iota
	vTrue
	vFalse
)

// cref addresses a clause in the solver's arena: the offset of its header.
type cref uint32

// noReason is the reason of a decision, an assumption or a unit fact;
// propagate also returns it when no clause is in conflict.
const noReason = ^cref(0)

// A clause lives in the arena as a header word, the two halves of its
// float64 activity, then its literals:
//
//	[size<<2 | deleted<<1 | learnt] [activity low] [activity high] [lit 0] … [lit size-1]
//
// Problem clauses keep activity 0.
const (
	learntBit   = 1
	deletedBit  = 2
	clauseExtra = 3 // header and activity words before the literals
)

// watcher is pointer-free, so watch lists are neither scanned by the GC nor
// written through write barriers.
type watcher struct {
	c       cref
	blocker Lit
}

// Theory is the theory half of a DPLL(T) search (see Solver.Theory). Every
// method reads the assignment with s.Value (or the literals it is handed)
// and must not modify s. A lemma is a clause that holds in every theory
// model and whose every literal is false under the current assignment; the
// solver copies it, so the theory may reuse its buffer. Returning ok=false
// gives up, which ends SolveAssuming with Unknown.
type Theory interface {
	// Assert is called after each propagation fixpoint with lits, the trail
	// entries from position from on that the theory has not seen, all at the
	// current decision level: the trail's first from entries are the ones
	// it was handed before, minus those Backtrack took back. It returns
	// (nil, true) when the trail so far is theory-consistent, or a lemma
	// with a literal of lits among its complements, so that resolving it
	// backjumps below every entry of lits the theory did not take.
	Assert(s *Solver, from int, lits []Lit) (lemma []Lit, ok bool)

	// Backtrack is called when the trail is cut to its first n entries,
	// below the part the theory has seen; the theory forgets what it was
	// handed from position n on. The solver also calls it while the theory
	// is detached (Solver.Theory nil or another theory), so a theory that
	// is attached again resumes on the trail it knows.
	Backtrack(n int)

	// Check is the final check, called each time every switched-on variable
	// is assigned and Assert accepted the whole trail: (nil, true) accepts
	// the assignment, which ends the search Sat, or it returns a lemma.
	Check(s *Solver) (lemma []Lit, ok bool)
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	// Theory, when non-nil, is consulted inside the search (see the Theory
	// interface); it must be comparable, as a pointer is. A lemma it
	// returns is kept as a problem clause, so it persists across
	// SolveAssuming calls like any clause AddClause adds, and is resolved
	// in place: if exactly one of its literals sits at its highest decision
	// level, the search backjumps to the second-highest level and asserts
	// that literal with the lemma as its reason; otherwise it backjumps to
	// the highest level and analyzes the lemma as the conflict. A lemma
	// false at level 0 makes the instance Unsat. Without a Theory every
	// full assignment is a model.
	Theory Theory

	// MaxLearnts, when > 0, bounds the learnt-clause database: once it
	// exceeds the (adaptive) bound, the least-active half is deleted and the
	// bound grows geometrically. Zero keeps every learnt clause — the
	// historical behavior, which one-shot solving relies on for
	// reproducibility; persistent incremental contexts set a bound so they
	// don't grow without limit across thousands of probes.
	MaxLearnts int

	// FixedPolarity disables phase saving: every branch decision assigns its
	// variable the initial (false) phase, so models are biased toward few
	// true variables. The map solver of the optimal-solutions enumeration
	// relies on this to propose near-minimal lattice points first.
	FixedPolarity bool

	// arena holds every clause (see cref); wasted counts the words of
	// deleted clauses still in it, which reduceDB compacts away once they
	// are more than half of it.
	arena       []Lit
	wasted      int
	compactions int // arena compactions so far

	clauses  []cref
	learnts  []cref
	watches  [][]watcher // indexed by literal
	assigns  []value     // indexed by variable
	vars     []varData   // indexed by variable
	activity []float64   // VSIDS score per variable
	varCap   int         // variables the per-variable slices have room for (growVars)
	trail    []Lit
	trailLim []int
	qhead    int
	varInc   float64
	claInc   float64
	order    *varHeap
	ok       bool // false once an empty clause is added

	// told is the last theory handed trail entries, and thHead how many of
	// the trail's entries it has seen; cancelUntil tells it of every cut
	// below thHead, attached or not.
	told   Theory
	thHead int

	conflict   []Lit // failed-assumption core of the last SolveAssuming
	maxLearnts int   // current adaptive reduceDB bound (from MaxLearnts)

	// litStamp/stamp is the per-literal epoch marker used by AddClause's
	// dedup; like varData.seen it avoids a map allocation per
	// conflict/clause, which dominated the solver's profile.
	litStamp []uint32
	stamp    uint32

	// scratch holds the clause AddClause normalizes and the clause analyze
	// learns until it is copied into the arena.
	scratch []Lit

	// Stats counts solver work for diagnostics and the paper's figures.
	Stats struct {
		Conflicts       int64 // theory conflicts included
		Decisions       int64
		Propagations    int64
		Restarts        int64
		Reduces         int64 // reduceDB sweeps
		Deleted         int64 // learnt clauses deleted by reduceDB
		TheoryConflicts int64 // lemmas the Theory returned
	}
}

// varData is a variable's search state besides its value and activity.
type varData struct {
	level    int32 // decision level
	reason   cref  // antecedent clause, noReason if none
	polarity bool  // saved phase (true = last assigned false)
	decision bool  // may be branched on and propagated above level 0
	// seen is the scratch marker shared by analyze and analyzeFinal
	// (all-false between uses).
	seen bool
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem (non-learnt) clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learnt clauses currently retained.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Clauses returns a copy of the problem (non-learnt) clauses, in the order
// they were added. Useful for comparing two instances structurally.
func (s *Solver) Clauses() [][]Lit {
	out := make([][]Lit, len(s.clauses))
	for i, c := range s.clauses {
		out[i] = append([]Lit(nil), s.lits(c)...)
	}
	return out
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	if v == s.varCap {
		s.growVars(max(4, 2*v))
	}
	s.assigns = append(s.assigns, unassigned)
	s.vars = append(s.vars, varData{level: -1, reason: noReason, polarity: true, decision: true})
	s.activity = append(s.activity, 0)
	s.watches = append(s.watches, nil, nil)
	s.litStamp = append(s.litStamp, 0, 0)
	s.order.insert(v)
	return v
}

// growVars gives every per-variable and per-literal slice room for n
// variables at once. Doubling keeps an instance's copying to about twice
// its final size, where append's own growth, about 1.25x for long slices,
// copies each of them some five times over as an instance grows to
// thousands of variables.
func (s *Solver) growVars(n int) {
	s.varCap = n
	s.assigns = withCap(s.assigns, n)
	s.vars = withCap(s.vars, n)
	s.activity = withCap(s.activity, n)
	s.watches = withCap(s.watches, 2*n)
	s.litStamp = withCap(s.litStamp, 2*n)
	s.order.heap = withCap(s.order.heap, n)
	s.order.indices = withCap(s.order.indices, n)
}

// withCap returns a copy of xs with capacity n. slices.Grow would round the
// capacity up by append's growth rule, overshooting n by up to a third.
func withCap[T any](xs []T, n int) []T {
	out := make([]T, len(xs), n)
	copy(out, xs)
	return out
}

// SetDecision switches variable v on or off (variables start on). A
// switched-off variable is never branched on and, above decision level 0,
// never assigned by propagation either: a clause whose last open literal is
// switched off is left open rather than made to imply it. Level 0 still
// propagates every variable, so the level-0 facts are complete whenever a
// variable is switched back on. May be called between any two Solve calls.
//
// Precondition for keeping verdicts: a Sat answer assigns every switched-on
// variable and falsifies no clause, but may leave switched-off variables
// unassigned, and Model reads those as false. That is a model of the whole
// instance only when setting every unassigned switched-off variable false
// can falsify no clause — for example when the switched-off variables are
// one-sided Tseitin gates that no assumption reaches through the gates'
// definitional clauses: such a gate occurs positively only in the clauses
// of its parent gates, whose negated literal is then switched off and false
// too. Assumption literals must be over switched-on variables. Under the
// precondition every Sat and Unsat answer is the one the instance with all
// variables switched on gives; only the search order differs.
func (s *Solver) SetDecision(v int, on bool) {
	s.vars[v].decision = on
	if on && s.assigns[v] == unassigned {
		s.order.insert(v)
	}
}

// Decision reports whether variable v is switched on (see SetDecision).
func (s *Solver) Decision(v int) bool { return s.vars[v].decision }

func (s *Solver) litValue(l Lit) value {
	v := s.assigns[l.Var()]
	if v == unassigned {
		return unassigned
	}
	if l.Neg() {
		if v == vTrue {
			return vFalse
		}
		return vTrue
	}
	return v
}

// AddClause adds a clause over existing variables. It returns false if the
// clause makes the formula trivially unsatisfiable. Must be called at
// decision level 0 (i.e., before Solve or between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.trailLim) != 0 {
		s.cancelUntil(0)
	}
	// Normalize: drop duplicate and false literals; detect tautologies. The
	// per-literal epoch stamp makes the dedup allocation-free even for the
	// long blocking clauses the map solver adds.
	s.stamp++
	out := s.scratch[:0]
	for _, l := range lits {
		if s.litStamp[l.Not()] == s.stamp {
			return true // tautology
		}
		if s.litStamp[l] == s.stamp {
			continue
		}
		switch s.litValue(l) {
		case vTrue:
			return true // already satisfied at level 0
		case vFalse:
			continue
		}
		s.litStamp[l] = s.stamp
		out = append(out, l)
	}
	s.scratch = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.ok = false
			return false
		}
		return true
	}
	c := s.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// alloc copies lits into the arena as a new clause.
func (s *Solver) alloc(lits []Lit, learnt bool) cref {
	c := cref(len(s.arena))
	h := Lit(len(lits)) << 2
	if learnt {
		h |= learntBit
	}
	if need := len(s.arena) + clauseExtra + len(lits); need > cap(s.arena) {
		// Doubling, as growVars does for the per-variable slices.
		s.arena = slices.Grow(s.arena, max(need, 2*cap(s.arena))-len(s.arena))
	}
	s.arena = append(s.arena, h, 0, 0)
	s.arena = append(s.arena, lits...)
	return c
}

// lits returns clause c's literals, a view into the arena that stays valid
// until the next alloc or compaction.
func (s *Solver) lits(c cref) []Lit {
	start := int(c) + clauseExtra
	return s.arena[start : start+s.size(c)]
}

func (s *Solver) size(c cref) int { return int(s.arena[c] >> 2) }

// words is the arena footprint of clause c.
func (s *Solver) words(c cref) int { return clauseExtra + s.size(c) }

func (s *Solver) learnt(c cref) bool { return s.arena[c]&learntBit != 0 }

func (s *Solver) deleted(c cref) bool { return s.arena[c]&deletedBit != 0 }

func (s *Solver) act(c cref) float64 {
	return math.Float64frombits(uint64(uint32(s.arena[c+1])) | uint64(uint32(s.arena[c+2]))<<32)
}

func (s *Solver) setAct(c cref, a float64) {
	b := math.Float64bits(a)
	s.arena[c+1], s.arena[c+2] = Lit(uint32(b)), Lit(uint32(b>>32))
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c: c, blocker: lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c: c, blocker: lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from cref) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = vFalse
	} else {
		s.assigns[v] = vTrue
	}
	s.vars[v].level = int32(len(s.trailLim))
	s.vars[v].reason = from
	s.trail = append(s.trail, l)
}

// propagate runs unit propagation to a fixed point and returns the clause in
// conflict, or noReason.
func (s *Solver) propagate() cref {
	above := len(s.trailLim) > 0
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		confl := noReason
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if confl != noReason {
				kept = append(kept, ws[i:]...)
				break
			}
			switch s.litValue(w.blocker) {
			case vTrue:
				kept = append(kept, w)
				continue
			case unassigned:
				if above && !s.vars[w.blocker.Var()].decision {
					// A switched-off literal stays open above level 0, so
					// the clause can neither conflict nor imply a
					// switched-on literal there: leave it untouched.
					kept = append(kept, w)
					continue
				}
			}
			// reduceDB unwatches deleted clauses, so c is live.
			c := w.c
			lits := s.lits(c)
			// Ensure the false literal is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.litValue(first) == vTrue {
				kept = append(kept, watcher{c: c, blocker: first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.litValue(lits[k]) != vFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			kept = append(kept, watcher{c: c, blocker: first})
			if s.litValue(first) == vFalse {
				confl = c
				s.qhead = len(s.trail)
			} else if above && !s.vars[first.Var()].decision {
				// Switched off: the clause stays open above level 0. Its
				// other literals were falsified at this level or below, so
				// any backtrack that reopens one also reopens lits[1].
				continue
			} else {
				s.uncheckedEnqueue(first, c)
				s.Stats.Propagations++
			}
		}
		s.watches[p] = kept
		if confl != noReason {
			return confl
		}
	}
	return noReason
}

func (s *Solver) cancelUntil(lvl int) {
	if len(s.trailLim) <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].Var()
		d := &s.vars[v]
		if !s.FixedPolarity {
			d.polarity = s.assigns[v] == vFalse
		}
		s.assigns[v] = unassigned
		d.reason = noReason
		if d.decision {
			s.order.insert(v)
		}
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
	if s.thHead > len(s.trail) {
		s.thHead = len(s.trail)
		s.told.Backtrack(s.thHead)
	}
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (first literal is the asserting one) and the backtrack level. The clause
// is built in s.scratch and valid until the next AddClause or analyze.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.scratch[:0], 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.trailLim))

	for {
		if s.learnt(confl) {
			s.bumpClause(confl)
		}
		for _, q := range s.lits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if d := &s.vars[v]; !d.seen && d.level > 0 {
				d.seen = true
				s.bumpVar(v)
				if d.level >= curLevel {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next literal on the trail to resolve on.
		for !s.vars[s.trail[idx].Var()].seen {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.vars[p.Var()].seen = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.vars[p.Var()].reason
	}
	learnt[0] = p.Not()
	// Restore the all-false invariant of the shared scratch marker: only the
	// collected lower-level literals are still marked.
	for _, l := range learnt[1:] {
		s.vars[l.Var()].seen = false
	}

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.vars[learnt[i].Var()].level > s.vars[learnt[maxI].Var()].level {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.vars[learnt[1].Var()].level)
	}
	s.scratch = learnt
	return learnt, btLevel
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(c cref) {
	a := s.act(c) + s.claInc
	s.setAct(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.setAct(lc, s.act(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

// locked reports whether c is the propagation reason of its asserting
// literal; locked clauses must survive reduceDB.
func (s *Solver) locked(c cref) bool {
	v := s.lits(c)[0].Var()
	return s.assigns[v] != unassigned && s.vars[v].reason == c
}

// reduceDB deletes the least-active half of the learnt clauses, keeping
// binary and locked ones. Deleted clauses are removed from the watch lists
// immediately, and once they fill more than half the arena it is compacted,
// so a persistent incremental solver does not accumulate dead clause memory
// across probes.
func (s *Solver) reduceDB() {
	s.Stats.Reduces++
	sorted := append([]cref(nil), s.learnts...)
	sort.Slice(sorted, func(i, j int) bool { return s.act(sorted[i]) < s.act(sorted[j]) })
	for _, c := range sorted[:len(sorted)/2] {
		if s.size(c) == 2 || s.locked(c) {
			continue
		}
		s.arena[c] |= deletedBit
		s.wasted += s.words(c)
		s.Stats.Deleted++
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if !s.deleted(c) {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	for l := range s.watches {
		ws := s.watches[l]
		out := ws[:0]
		for _, w := range ws {
			if !s.deleted(w.c) {
				out = append(out, w)
			}
		}
		s.watches[l] = out
	}
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

// compact copies the live clauses, in arena order, into a fresh arena and
// rewrites every reference to them. Each copied clause leaves its new ref in
// its old activity word as a forwarding address. Only watchers, reasons,
// clauses and learnts hold refs, and none of them refers to a deleted
// clause: reduceDB unwatches and drops those, and never deletes a reason.
func (s *Solver) compact() {
	to := make([]Lit, 0, len(s.arena)-s.wasted)
	for c := cref(0); int(c) < len(s.arena); c += cref(s.words(c)) {
		if !s.deleted(c) {
			next := Lit(len(to))
			to = append(to, s.arena[c:int(c)+s.words(c)]...)
			s.arena[c+1] = next
		}
	}
	fwd := func(c cref) cref { return cref(s.arena[c+1]) }
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = fwd(ws[i].c)
		}
	}
	for v := range s.vars {
		if r := s.vars[v].reason; r != noReason {
			s.vars[v].reason = fwd(r)
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = fwd(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = fwd(c)
	}
	s.arena, s.wasted = to, 0
	s.compactions++
}

func (s *Solver) pickBranchVar() int {
	for s.order.size() > 0 {
		v := s.order.pop()
		if s.assigns[v] == unassigned && s.vars[v].decision {
			return v
		}
	}
	return -1
}

// Solve searches for a satisfying assignment under the given assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	st, _ := s.SolveAssuming(assumptions...)
	return st
}

// SolveAssuming is Solve with final-conflict analysis: when the verdict is
// Unsat because of the assumptions, the returned core is the subset of the
// assumption literals used to derive the conflict — the instance implies
// ¬(∧ core), so any superset of the core is also unsatisfiable. An Unsat
// verdict with a nil core means the instance is unsatisfiable regardless of
// the assumptions.
//
// Assumption-conflict state from a previous call (the stored core and any
// partially applied assumption trail) is reset on entry and the trail is
// rewound to level 0 before returning an Unsat or Unknown verdict, so one
// solver can be reused across arbitrary Sat/Unsat/Sat probe sequences.
//
// The verdict is Unknown only when the attached Theory gave up; the lemmas
// it returned before that are kept.
func (s *Solver) SolveAssuming(assumptions ...Lit) (Status, []Lit) {
	s.conflict = nil
	if !s.ok {
		return Unsat, nil
	}
	s.cancelUntil(0)
	if s.Theory != nil && s.Theory != s.told {
		// A theory that has not seen this trail starts from its beginning;
		// the one that had seen it forgets it.
		if s.told != nil {
			s.told.Backtrack(0)
		}
		s.told, s.thHead = s.Theory, 0
	}
	maxConflicts := int64(100)
	for {
		st := s.search(maxConflicts, assumptions)
		if st != restart {
			if st != Sat {
				s.cancelUntil(0)
			}
			return st, s.conflict
		}
		maxConflicts = maxConflicts * 3 / 2
		s.Stats.Restarts++
	}
}

// analyzeFinal computes the failed-assumption core after assumption a was
// found falsified: starting from a's variable it walks the trail top-down,
// expanding propagated variables through their reason clauses and collecting
// decision variables — which, at the moment an assumption conflicts, are all
// assumption decisions (branch decisions only exist above the last
// assumption level and are backtracked before an assumption can turn false).
// Level-0 facts are implied by the instance alone and excluded.
func (s *Solver) analyzeFinal(a Lit) []Lit {
	out := []Lit{a}
	if len(s.trailLim) == 0 {
		return out
	}
	s.vars[a.Var()].seen = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		d := &s.vars[v]
		if !d.seen {
			continue
		}
		if d.reason == noReason {
			if d.level > 0 {
				out = append(out, s.trail[i])
			}
		} else {
			for _, q := range s.lits(d.reason) {
				if q.Var() != v && s.vars[q.Var()].level > 0 {
					s.vars[q.Var()].seen = true
				}
			}
		}
		d.seen = false
	}
	s.vars[a.Var()].seen = false // a may sit below trailLim[0] (enqueued at level 0)
	// The falsified assumption can itself appear as an assumption decision
	// (e.g. contradictory assumption lists); dedupe by literal.
	s.stamp++
	uniq := out[:0]
	for _, l := range out {
		if s.litStamp[l] != s.stamp {
			s.litStamp[l] = s.stamp
			uniq = append(uniq, l)
		}
	}
	return uniq
}

func (s *Solver) search(maxConflicts int64, assumptions []Lit) Status {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != noReason {
			s.Stats.Conflicts++
			conflicts++
			if len(s.trailLim) == 0 {
				s.ok = false
				return Unsat
			}
			s.learn(confl)
			continue
		}
		if s.Theory != nil && s.thHead < len(s.trail) {
			from := s.thHead
			s.thHead = len(s.trail)
			lemma, ok := s.Theory.Assert(s, from, s.trail[from:])
			if !ok {
				return Unknown
			}
			if lemma != nil {
				s.Stats.Conflicts++
				s.Stats.TheoryConflicts++
				conflicts++
				if !s.addLemma(lemma) {
					return Unsat
				}
				continue
			}
		}
		if conflicts >= maxConflicts {
			s.cancelUntil(0)
			return restart
		}
		// Re-apply assumptions not yet on the trail.
		next := Lit(-1)
		for _, a := range assumptions {
			switch s.litValue(a) {
			case vTrue:
				continue
			case vFalse:
				// The assumption is falsified by the instance plus the
				// assumptions already applied; extract which ones.
				s.conflict = s.analyzeFinal(a)
				return Unsat
			default:
				next = a
			}
			break
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == -1 {
				if s.Theory == nil {
					return Sat
				}
				lemma, ok := s.Theory.Check(s)
				switch {
				case !ok:
					return Unknown
				case lemma == nil:
					return Sat
				}
				s.Stats.Conflicts++
				s.Stats.TheoryConflicts++
				conflicts++
				if !s.addLemma(lemma) {
					return Unsat
				}
				continue
			}
			s.Stats.Decisions++
			next = MkLit(v, s.vars[v].polarity)
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noReason)
	}
}

// learn analyzes the clause confl, in conflict at the current decision
// level above 0, backjumps, and asserts the learnt clause's first literal.
func (s *Solver) learn(confl cref) {
	learnt, btLevel := s.analyze(confl)
	s.cancelUntil(btLevel)
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], noReason)
	} else {
		c := s.alloc(learnt, true)
		s.setAct(c, s.claInc)
		s.learnts = append(s.learnts, c)
		s.attach(c)
		s.uncheckedEnqueue(learnt[0], c)
	}
	s.decayVar()
	s.decayClause()
	if s.MaxLearnts > 0 {
		if s.maxLearnts < s.MaxLearnts {
			s.maxLearnts = s.MaxLearnts
		}
		if len(s.learnts) >= s.maxLearnts {
			s.reduceDB()
			s.maxLearnts = s.maxLearnts*11/10 + 16
		}
	}
}

// addLemma keeps a theory lemma as a problem clause and resolves it against
// the current assignment, which falsifies it (see Solver.Theory). Literals
// false at level 0 are dropped, as AddClause drops them; it reports false
// when none is left, which makes the instance unsatisfiable.
func (s *Solver) addLemma(lemma []Lit) bool {
	s.stamp++
	out := s.scratch[:0]
	for _, l := range lemma {
		if s.litValue(l) != vFalse {
			panic("sat: theory lemma not falsified by the assignment")
		}
		if s.litStamp[l] == s.stamp || s.vars[l.Var()].level == 0 {
			continue
		}
		s.litStamp[l] = s.stamp
		out = append(out, l)
	}
	s.scratch = out
	if len(out) == 0 {
		s.ok = false
		return false
	}
	// Watch the literals of the highest and the second-highest level.
	for _, i := range [2]int{0, 1} {
		for k := i + 1; k < len(out); k++ {
			if s.vars[out[k].Var()].level > s.vars[out[i].Var()].level {
				out[i], out[k] = out[k], out[i]
			}
		}
	}
	if len(out) == 1 {
		s.cancelUntil(0)
		s.uncheckedEnqueue(out[0], noReason)
		return true
	}
	c := s.alloc(out, false)
	s.clauses = append(s.clauses, c)
	s.attach(c)
	top, second := int(s.vars[out[0].Var()].level), int(s.vars[out[1].Var()].level)
	if top > second {
		// Exactly one literal at the top level: the lemma is asserting.
		s.cancelUntil(second)
		s.uncheckedEnqueue(out[0], c)
		return true
	}
	s.cancelUntil(top)
	s.learn(c)
	return true
}

// Value reports the model value of variable v after Solve returns Sat. A
// switched-off variable left unassigned by the search reads false (see
// SetDecision).
func (s *Solver) Value(v int) bool { return s.assigns[v] == vTrue }

// Model returns the satisfying assignment after Solve returns Sat, with
// unassigned switched-off variables false (see SetDecision).
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.assigns))
	for v := range s.assigns {
		m[v] = s.assigns[v] == vTrue
	}
	return m
}

// varHeap is a max-heap over variable activities. Positions are tracked in a
// dense slice (-1 = absent) rather than a map: swap sits on the propagate/
// backtrack hot path.
type varHeap struct {
	act     *[]float64
	heap    []int32
	indices []int32 // variable → heap position, -1 when absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{act: act}
}

func (h *varHeap) size() int { return len(h.heap) }

func (h *varHeap) less(a, b int) bool { return (*h.act)[h.heap[a]] > (*h.act)[h.heap[b]] }

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.indices[h.heap[a]] = int32(a)
	h.indices[h.heap[b]] = int32(b)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(l, best) {
			best = l
		}
		if r < len(h.heap) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) insert(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.indices[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) update(v int) {
	if v < len(h.indices) {
		if i := int(h.indices[v]); i >= 0 {
			h.up(i)
			h.down(i)
		}
	}
}

func (h *varHeap) pop() int {
	v := int(h.heap[0])
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if last > 0 {
		h.down(0)
	}
	return v
}
