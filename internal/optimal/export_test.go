package optimal

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/template"
)

// ObserveReplays calls f for every group search answered from a persisted
// result until the test ends. Install it before the run starts its workers.
func ObserveReplays(t testing.TB, f func(phi logic.Formula, q template.Domain, sols []template.Solution)) {
	searchReplayed = f
	t.Cleanup(func() { searchReplayed = nil })
}

// FreshSearch enumerates one unknown-connected group on a new engine with
// default bounds and no store.
func FreshSearch(phi logic.Formula, q template.Domain) []template.Solution {
	e := New(smt.NewSolver(smt.Options{}))
	sols, _ := e.enumerate(e.newGroup(phi, q))
	return sols
}

// bfsNegativeSolutions is OptimalNegativeSolutions with every group
// enumerated by the reference BFS instead of the map-solver-guided search.
func (e *Engine) bfsNegativeSolutions(phi logic.Formula, q template.Domain) []template.Solution {
	return e.negativeSolutions(phi, q, func(g logic.Formula, q template.Domain) []template.Solution {
		sols, _ := e.negBFS(e.newGroup(g, q))
		return sols
	})
}

// TamperSearch is tamperSearch for the external test package.
var TamperSearch = tamperSearch
