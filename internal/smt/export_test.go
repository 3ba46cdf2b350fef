package smt

import (
	"fmt"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/sat"
)

// newBudgetSolver returns a solver whose retained-state budget is shrunk to
// ctxUnits SAT units for registered context groups and cacheNodes formula
// nodes for the validity cache, so tests can drive eviction with a handful of
// skeletons or formulas instead of a long-running session's worth.
func newBudgetSolver(opts Options, ctxUnits int64, cacheNodes int64) *Solver {
	s := NewSolver(opts)
	s.reg.budget = ctxUnits
	s.cache = newValidityCache(cacheNodes, &s.ctr)
	return s
}

// registered returns how many context groups the registry holds.
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
	return s.decideGround(ground)
}

// CrossCheckGrounding makes every probe grounded from now on be grounded by
// the multi-pass oracle as well, and calls fail with a description of each
// probe whose interned results differ. It returns a counter of the probes
// checked and a function that removes the hook. Install it before any
// solver runs: the hook is package-wide.
func CrossCheckGrounding(fail func(msg string)) (checked func() int64, remove func()) {
	var n atomic.Int64
	groundCheck = func(s *Solver, f *logic.IFormula, ground logic.Formula, decided, valid bool) {
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
// second time on the same lane with every SAT variable switched on, and
// calls fail with a description of each probe whose verdicts differ. It
// returns a counter of the probes checked and a function that removes the
// hook. Install it before any solver runs: the hook is package-wide.
func CrossCheckCones(fail func(msg string)) (checked func() int64, remove func()) {
	var n atomic.Int64
	probeCheck = func(c *Context, assumps []sat.Lit, satisfiable bool) {
		n.Add(1)
		if all := c.decideAllOn(assumps); all != satisfiable {
			fail(fmt.Sprintf("probe under %v on a lane of %d variables: satisfiable=%v with its cone switched on, %v with every variable on",
				assumps, c.sat.NumVars(), satisfiable, all))
		}
	}
	return n.Load, func() { probeCheck = nil }
}

// decideAllOn re-decides a probe with every variable of the lane switched on
// — the reference a cone-restricted search must agree with — and then
// switches every probe gate off again, as after reset. The lane's lock must
// be held.
func (c *Context) decideAllOn(assumps []sat.Lit) bool {
	for v := 0; v < c.sat.NumVars(); v++ {
		c.sat.SetDecision(v, true)
	}
	satisfiable, _ := c.probeLoop(nil, assumps...)
	for v, at := range c.gates.start {
		if at >= 0 {
			c.sat.SetDecision(v, false)
		}
	}
	c.gates.on = c.gates.on[:0]
	return satisfiable
}

// Valid is ValidFill without a fill: the probe is grounded as a whole
// formula, with nothing shared across probes.
func (c *Context) Valid(f logic.Formula) bool { return c.ValidFill(f, nil) }
