package smt

import (
	"repro/internal/lia"
	"repro/internal/sat"
	"repro/internal/stats"
)

// theoryHook is the theory half of every DPLL(T) search the solver runs, a
// context's and the from-scratch path's alike: attached to a sat.Solver
// as its Theory, it reads the atoms' truth values off each full assignment,
// checks them with a lia.Checker, and returns a conflict as the lemma the
// SAT search resolves in place. It gives up, so the probe answers the
// conservative "satisfiable", when Stop fires or a probe finds more than
// Options.MaxTheoryIterations conflicts.
type theoryHook struct {
	s *Solver

	checker  lia.Checker
	atomVars []int     // SAT variable of atom i
	assign   []bool    // atom i's truth value under the current assignment
	lemma    []sat.Lit // the last lemma, reused

	// Per probe: the conflicts found so far, and, when non-nil, where each
	// lemma is recorded for the context's lemma list and the knowledge
	// store. Only contexts record, and there atom i is grounder atom i.
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

// scratchFM checks each assignment of a fixed atom set outside the
// difference fragment by a from-scratch Fourier–Motzkin elimination
// (lia.FM) over the atoms' selected polarity forms: the from-scratch
// path's general-LIA checker.
type scratchFM struct {
	vars     *lia.Vars
	pos, neg []lia.Form
	cons     []lia.Form
	fm       lia.FM
	ctr      *stats.Counters
}

// newScratchFM precomputes each atom's negation once, not per false atom
// per check.
func newScratchFM(vars *lia.Vars, atoms []lia.Form, ctr *stats.Counters) *scratchFM {
	f := &scratchFM{vars: vars, pos: atoms, neg: make([]lia.Form, len(atoms)), ctr: ctr}
	for i, a := range atoms {
		f.neg[i] = a.Negate()
	}
	return f
}

// Check implements lia.Checker.
func (f *scratchFM) Check(assign []bool) lia.Result {
	f.cons = f.cons[:0]
	for k, val := range assign {
		if val {
			f.cons = append(f.cons, f.pos[k])
		} else {
			f.cons = append(f.cons, f.neg[k])
		}
	}
	f.ctr.Add(stats.FMScratch, 1)
	res := f.fm.Check(f.vars, f.cons)
	if res.Truncated {
		f.ctr.Add(stats.FMCapHits, 1)
	}
	return res
}
