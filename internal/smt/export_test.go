package smt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lia"
	"repro/internal/logic"
	"repro/internal/sat"
)

// newBudgetSolver returns a solver whose retained-state budget is shrunk to
// ctxUnits SAT units for registered contexts and cacheNodes formula
// nodes for the validity cache, so tests can drive eviction with a handful of
// skeletons or formulas instead of a long-running session's worth.
func newBudgetSolver(opts Options, ctxUnits int64, cacheNodes int64) *Solver {
	s := NewSolver(opts)
	s.reg.budget = ctxUnits
	s.cache = newValidityCache(cacheNodes, &s.ctr)
	return s
}

// registered returns how many contexts the registry holds.
func (s *Solver) registered() int {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	return len(s.reg.byKey)
}

// Satisfiable reports whether f has a model, modulo bounded quantifier
// instantiation: "false" (unsat) is sound; "true" is exact for ground
// formulas and best-effort for quantified ones. f is satisfiable exactly
// when its negation is not valid, so it is grounded as the negation of ¬f.
func (s *Solver) Satisfiable(f logic.Formula) bool {
	ground, decided, valid := s.groundStatic(logic.Intern(logic.Neg(f)))
	if decided {
		return !valid
	}
	return s.decideOnce(ground)
}

// CrossCheckGrounding makes every probe grounded from now on be grounded by
// the multi-pass oracle as well, and calls fail with a description of each
// probe whose interned results differ. It returns a counter of the probes
// checked and a function that removes the hook. Install it before any
// solver runs: the hook is package-wide.
func CrossCheckGrounding(fail func(msg string)) (checked func() int64, remove func()) {
	var n atomic.Int64
	groundCheck = func(s *Solver, f, _ *logic.IFormula, _ [][]*logic.IFormula, ground logic.Formula, decided, valid bool) {
		n.Add(1)
		if msg := s.compareOracle(f, ground, decided, valid); msg != "" {
			fail(msg)
		}
	}
	return n.Load, func() { groundCheck = nil }
}

// compareOracle grounds the probe f with oracleGround and describes how the
// given result differs from it ("" when the interned results are the same
// node).
func (s *Solver) compareOracle(f *logic.IFormula, ground logic.Formula, decided, valid bool) string {
	sn := f.Simplified()
	var want logic.Formula
	var wantDecided, wantValid bool
	if b, ok := sn.Formula().(logic.Bool); ok {
		wantDecided, wantValid = true, b.Val
	} else if g, done, sat := s.oracleGround(sn); done {
		wantDecided, wantValid = true, !sat
	} else {
		want = g
	}
	switch {
	case decided != wantDecided || valid != wantValid:
		return fmt.Sprintf("probe %s: plan decided=%v valid=%v, oracle decided=%v valid=%v", f, decided, valid, wantDecided, wantValid)
	case decided:
		return ""
	case logic.Intern(ground) != logic.Intern(want):
		return fmt.Sprintf("probe %s:\n  plan   %s\n  oracle %s", f, ground, want)
	}
	return ""
}

// CrossCheckCones makes every context probe decided from now on be decided a
// second time on the same context with every SAT variable switched on, and
// calls fail with a description of each probe whose verdicts differ. It
// returns a counter of the probes checked and a function that removes the
// hook. Install it before any solver runs: the hook is package-wide.
func CrossCheckCones(fail func(msg string)) (checked func() int64, remove func()) {
	var n atomic.Int64
	probeCheck = func(c *Context, assumps []sat.Lit, satisfiable bool) {
		n.Add(1)
		if all := c.decideAllOn(assumps); all != satisfiable {
			fail(fmt.Sprintf("probe under %v on a context of %d variables: satisfiable=%v with its cone switched on, %v with every variable on",
				assumps, c.sat.NumVars(), satisfiable, all))
		}
	}
	return n.Load, func() { probeCheck = nil }
}

// decideAllOn re-decides a probe with every variable of the context switched
// on — the reference a cone-restricted search must agree with — and then
// switches every probe gate off again, as after reset. The context's lock
// must be held.
func (c *Context) decideAllOn(assumps []sat.Lit) bool {
	for v := 0; v < c.sat.NumVars(); v++ {
		c.sat.SetDecision(v, true)
	}
	satisfiable, _ := c.hook.decide(c.sat, nil, assumps...)
	for v, at := range c.gates.start {
		if at >= 0 {
			c.sat.SetDecision(v, false)
		}
	}
	c.gates.on = c.gates.on[:0]
	return satisfiable
}

// CrossCheckOffline makes every context probe decided from now on be decided
// a second time on the same context by the offline DPLL(T) loop (decideOffline),
// and calls fail with a description of each probe whose verdicts differ. It
// returns a counter of the probes checked and a function that removes the
// hook. Install it before any solver runs: the hook is package-wide.
func CrossCheckOffline(fail func(msg string)) (checked func() int64, remove func()) {
	var n atomic.Int64
	probeCheck = func(c *Context, assumps []sat.Lit, satisfiable bool) {
		n.Add(1)
		if off := c.decideOffline(assumps); off != satisfiable {
			fail(fmt.Sprintf("probe under %v on a context of %d variables: satisfiable=%v online, %v offline",
				assumps, c.sat.NumVars(), satisfiable, off))
		}
	}
	return n.Load, func() { probeCheck = nil }
}

// decideOffline re-decides a probe by the offline DPLL(T) loop the contexts
// ran before the theory check moved inside the SAT search: with the hook
// detached, solve to a full model from level 0, check it with the
// context's checker (still narrowed to the probe), add the conflict as a
// blocking clause and solve again, until a consistent model, propositional
// unsatisfiability or MaxTheoryIterations rounds. Its blocking clauses stay
// in the context, as the online search's lemmas do. The context's lock must
// be held.
func (c *Context) decideOffline(assumps []sat.Lit) bool {
	h := &c.hook
	c.sat.Theory = nil
	defer func() { c.sat.Theory = h }()
	lits := make([]sat.Lit, len(h.atomVars))
	assign := make([]bool, len(h.atomVars))
	for iter := 0; iter < c.s.opts.MaxTheoryIterations; iter++ {
		if c.s.opts.Stop != nil && c.s.opts.Stop() {
			return true
		}
		if st, _ := c.sat.SolveAssuming(assumps...); st == sat.Unsat {
			return false
		}
		for k, v := range h.atomVars {
			val := c.sat.Value(v)
			assign[k] = val
			lits[k] = sat.MkLit(v, !val)
		}
		var res lia.Result
		if h.lin != nil {
			res = h.lin.Check(assign)
		} else {
			// A fresh checker: the hook's own holds the atoms the online
			// search asserted.
			d, _ := lia.NewDiffChecker(c.g.forms)
			res = d.Check(assign)
		}
		if res.Sat {
			return true
		}
		blocking := make([]sat.Lit, 0, len(res.Conflict))
		for _, ci := range res.Conflict {
			blocking = append(blocking, lits[ci].Not())
		}
		if !c.sat.AddClause(blocking...) {
			return false
		}
	}
	return true
}

// Valid is ValidFill without a fill: the probe is grounded as a whole
// formula, with nothing shared across probes.
func (c *Context) Valid(f logic.Formula) bool { return c.ValidFill(f, nil) }

// CrossCheckCompiled makes every probe decided over a compiled skeleton
// from now on be decided a second time, through the multi-pass oracle on a
// one-shot context of a solver with no store and no cache, and calls fail
// with a description of each probe whose verdicts differ. It returns a
// counter of the probes checked and a function that removes the hook.
// Install it before any solver runs: the hook is package-wide.
func CrossCheckCompiled(fail func(msg string)) (checked func() int64, remove func()) {
	var n atomic.Int64
	compiledCheck = func(s *Solver, f, _ *logic.IFormula, _ [][]*logic.IFormula, valid bool) {
		n.Add(1)
		if want := s.oracleValid(f); want != valid {
			fail(fmt.Sprintf("probe %s: compiled valid=%v, oracle valid=%v", f, valid, want))
		}
	}
	return n.Load, func() { compiledCheck = nil }
}

// oracleValid decides the probe f from scratch: grounded by the multi-pass
// oracle and decided on a one-shot context of a store-less solver with s's
// options.
func (s *Solver) oracleValid(f *logic.IFormula) bool {
	opts := s.opts
	opts.Store, opts.Stop = nil, nil
	o := NewSolver(opts)
	sn := f.Simplified()
	if b, ok := sn.Formula().(logic.Bool); ok {
		return b.Val
	}
	g, done, sat := o.oracleGround(sn)
	if done {
		return !sat
	}
	return !o.decideOnce(g)
}

// CountPlanEnvironments counts the candidate environments grounding plans
// build from now on. It returns the count and a function that removes the
// hook. Install it before any solver runs: the hook is package-wide.
func CountPlanEnvironments() (built func() int64, remove func()) {
	var n atomic.Int64
	envCheck = func() { n.Add(1) }
	return n.Load, func() { envCheck = nil }
}

// PlanProbes is a record of the probes grounded through plans: per
// skeleton, in first-grounded order, its fills in the order they grounded.
type PlanProbes struct {
	mu    sync.Mutex
	skels []*logic.IFormula
	fills map[*logic.IFormula][][][]*logic.IFormula
}

// RecordPlanProbes records every probe grounded through a plan or decided
// over a compiled skeleton from now on. It returns the record and a
// function that removes the hooks. Install it before any solver runs: the
// hooks are package-wide.
func RecordPlanProbes() (*PlanProbes, func()) {
	r := &PlanProbes{fills: map[*logic.IFormula][][][]*logic.IFormula{}}
	record := func(skel *logic.IFormula, fill [][]*logic.IFormula) {
		if skel == nil {
			return
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.fills[skel]; !ok {
			r.skels = append(r.skels, skel)
		}
		r.fills[skel] = append(r.fills[skel], fill)
	}
	groundCheck = func(_ *Solver, _, skel *logic.IFormula, fill [][]*logic.IFormula, _ logic.Formula, _, _ bool) {
		record(skel, fill)
	}
	compiledCheck = func(_ *Solver, _, skel *logic.IFormula, fill [][]*logic.IFormula, _ bool) {
		record(skel, fill)
	}
	return r, func() { groundCheck, compiledCheck = nil, nil }
}

// Probes returns how many probes the record holds.
func (r *PlanProbes) Probes() int {
	n := 0
	for _, fs := range r.fills {
		n += len(fs)
	}
	return n
}

// Regrounder compiles one plan per recorded skeleton on a fresh solver and
// grounds every recorded probe through it once, warming its memos. It
// returns a function that grounds them all again, grounding only: nothing
// is decided.
func (r *PlanProbes) Regrounder() func() {
	s := NewSolver(Options{})
	plans := make([]*groundPlan, len(r.skels))
	reground := func() {
		for i, skel := range r.skels {
			for _, fill := range r.fills[skel] {
				plans[i].groundFill(fill)
			}
		}
	}
	for i, skel := range r.skels {
		plans[i] = newGroundPlan(s, skel.Formula())
	}
	reground()
	return reground
}
