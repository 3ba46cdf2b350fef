package smt

import (
	"repro/internal/lia"
	"repro/internal/sat"
	"repro/internal/stats"
)

// theoryHook is the theory half of every DPLL(T) search the solver runs, a
// persistent context's and a one-shot context's alike: attached to a
// sat.Solver as its Theory, it reads the atoms' truth values off each full
// assignment, checks them with a lia.Checker, and returns a conflict as the
// lemma the SAT search resolves in place. It gives up, so the probe answers
// the conservative "satisfiable", when Stop fires or a probe finds more than
// Options.MaxTheoryIterations conflicts.
type theoryHook struct {
	s *Solver

	checker  lia.Checker
	atomVars []int     // SAT variable of atom i
	assign   []bool    // atom i's truth value under the current assignment
	lemma    []sat.Lit // the last lemma, reused

	// Per probe: the conflicts found so far, and, when non-nil, where each
	// lemma is recorded for the context's lemma list and the knowledge
	// store. Atom i is grounder atom i.
	conflicts int
	pub       *[]theoryLemma
}

// Check implements sat.Theory.
func (h *theoryHook) Check(s *sat.Solver) ([]sat.Lit, bool) {
	if h.s.opts.Stop != nil && h.s.opts.Stop() {
		return nil, false
	}
	for k, v := range h.atomVars {
		h.assign[k] = s.Value(v)
	}
	res := h.checker.Check(h.assign)
	if res.Sat {
		return nil, true
	}
	if h.conflicts >= h.s.opts.MaxTheoryIterations {
		return nil, false
	}
	h.conflicts++
	h.s.ctr.Add(stats.TheoryConflicts, 1)
	lemma := h.lemma[:0]
	for _, ci := range res.Conflict {
		// The atom's literal is currently false exactly when it is the
		// atom's negation; the lemma carries the complement of each.
		lemma = append(lemma, sat.MkLit(h.atomVars[ci], h.assign[ci]))
	}
	h.lemma = lemma
	if h.pub != nil {
		lem := theoryLemma{atoms: res.Conflict, vals: make([]bool, len(res.Conflict))}
		for k, ci := range res.Conflict {
			lem.vals[k] = h.assign[ci]
		}
		*h.pub = append(*h.pub, lem)
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
