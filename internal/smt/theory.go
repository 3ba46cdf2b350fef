package smt

import (
	"repro/internal/lia"
	"repro/internal/sat"
	"repro/internal/stats"
)

// theoryHook is the theory half of every DPLL(T) search the solver runs, a
// persistent context's and a one-shot context's alike: attached to a
// sat.Solver as its Theory, it checks the atoms' truth values with a lia
// checker and returns a conflict as the lemma the SAT search resolves in
// place. While every atom is a difference constraint it asserts each atom
// in the incremental DiffChecker as the search assigns it (Assert) and takes
// it back on backjumps (Backtrack), so the final check has nothing left to
// decide; from the first general linear atom on, the final check copies the
// atoms' values off the full assignment into a LinChecker. It gives up, so
// the probe answers the conservative "satisfiable", when Stop fires or a
// probe finds more than Options.MaxTheoryIterations conflicts.
type theoryHook struct {
	s *Solver

	diff *lia.DiffChecker // the checker while lin is nil
	lin  *lia.LinChecker  // non-nil iff the checker is the general-LIA one

	atomVars []int     // SAT variable of atom i
	atomOf   []int32   // by SAT variable: its atom index plus one, 0 if none
	pushedAt []int32   // by atom asserted in diff: its position on the trail
	assign   []bool    // lin's input: atom i's value under the full assignment
	lemma    []sat.Lit // the last lemma, reused

	// Per probe: the conflicts found so far, and, when non-nil, where each
	// lemma is recorded for the context's lemma list and the knowledge
	// store. Atom i is grounder atom i.
	conflicts int
	pub       *[]theoryLemma
}

// Assert implements sat.Theory: it asserts each atom literal of lits in the
// difference checker, stopping at the first that closes a negative cycle.
func (h *theoryHook) Assert(s *sat.Solver, from int, lits []sat.Lit) ([]sat.Lit, bool) {
	if h.lin != nil {
		return nil, true
	}
	for k, l := range lits {
		v := l.Var()
		if v >= len(h.atomOf) || h.atomOf[v] == 0 {
			continue
		}
		if conflict := h.diff.Push(int(h.atomOf[v]-1), !l.Neg()); conflict != nil {
			return h.conflict(s, conflict)
		}
		h.pushedAt = append(h.pushedAt, int32(from+k))
	}
	return nil, true
}

// Backtrack implements sat.Theory: it takes back the atoms asserted from
// trail position n on.
func (h *theoryHook) Backtrack(n int) {
	k := len(h.pushedAt)
	for k > 0 && int(h.pushedAt[k-1]) >= n {
		k--
	}
	if k < len(h.pushedAt) {
		h.pushedAt = h.pushedAt[:k]
		h.diff.Pop(k)
	}
}

// Check implements sat.Theory.
func (h *theoryHook) Check(s *sat.Solver) ([]sat.Lit, bool) {
	if h.s.opts.Stop != nil && h.s.opts.Stop() {
		return nil, false
	}
	if h.lin == nil {
		return nil, true
	}
	for k, v := range h.atomVars {
		h.assign[k] = s.Value(v)
	}
	res := h.lin.Check(h.assign)
	if res.Sat {
		return nil, true
	}
	return h.conflict(s, res.Conflict)
}

// conflict turns a conflict, atom indices whose current values are jointly
// infeasible, into the lemma that forbids them, recording it when the probe
// publishes its lemmas. It gives up instead when Stop has fired or past
// MaxTheoryIterations conflicts.
func (h *theoryHook) conflict(s *sat.Solver, atoms []int) ([]sat.Lit, bool) {
	if h.conflicts >= h.s.opts.MaxTheoryIterations || h.s.opts.Stop != nil && h.s.opts.Stop() {
		return nil, false
	}
	h.conflicts++
	h.s.ctr.Add(stats.TheoryConflicts, 1)
	var vals []bool
	if h.pub != nil {
		vals = make([]bool, len(atoms))
	}
	lemma := h.lemma[:0]
	for k, ci := range atoms {
		// The atom's literal is currently false exactly when it is the
		// atom's negation; the lemma carries the complement of each.
		val := s.Value(h.atomVars[ci])
		lemma = append(lemma, sat.MkLit(h.atomVars[ci], val))
		if vals != nil {
			vals[k] = val
		}
	}
	h.lemma = lemma
	if h.pub != nil {
		*h.pub = append(*h.pub, theoryLemma{atoms: atoms, vals: vals})
	}
	return lemma, true
}

// decide runs one probe under the assumptions: unsatisfiable with its
// failed-assumption core, or satisfiable, which is also the answer when the
// hook gave up.
func (h *theoryHook) decide(s *sat.Solver, pub *[]theoryLemma, assumps ...sat.Lit) (satisfiable bool, core []sat.Lit) {
	h.conflicts, h.pub = 0, pub
	st, core := s.SolveAssuming(assumps...)
	if st == sat.Unsat {
		return false, core
	}
	return true, nil
}
