package smt

// newBudgetSolver returns a solver whose retained-state budget is shrunk to
// ctxUnits SAT units for registered context groups and cacheNodes formula
// nodes for the validity cache, so tests can drive eviction with a handful of
// skeletons or formulas instead of a long-running session's worth.
func newBudgetSolver(opts Options, ctxUnits int64, cacheNodes int64) *Solver {
	s := NewSolver(opts)
	s.reg.budget = ctxUnits
	s.cache = newValidityCache(cacheNodes)
	return s
}

// registered returns how many context groups the registry holds.
func (s *Solver) registered() int {
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	return len(s.reg.byKey)
}
