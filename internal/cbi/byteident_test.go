package cbi

import (
	"testing"

	"repro/internal/optimal"
	"repro/internal/sat"
	"repro/internal/smt"
)

// buildPsiProg runs phases 1 and 2 of Solve (plan + emit) and returns the
// assembled ψ_Prog instance.
func buildPsiProg(t *testing.T, opts smt.Options) *sat.Solver {
	t.Helper()
	p := arrayInitProblem()
	eng := optimal.New(smt.NewSolver(opts))
	enc := &encoder{s: sat.New(), vars: map[bvar]int{}, preds: map[bvar]keyedPred{}}
	paths := p.Paths()
	for i := range paths {
		plan, jobs := planPath(p, eng, i)
		if plan.err != nil {
			t.Fatal(plan.err)
		}
		for _, j := range jobs {
			*j.dst = eng.OptimalNegativeSolutions(j.fl.FillSolution(j.fill), j.dom)
		}
		emitPath(enc, plan)
	}
	return enc.s
}

// TestPsiProgByteIdentical: the ψ_Prog SAT instance must be byte-identical —
// same variable count, same clauses in the same order with the same literal
// numbering — whether the OptimalNegativeSolutions probes behind it went
// through incremental contexts or from-scratch solving. Incrementality may
// only change probe speed, never the supports the encoding is built from.
func TestPsiProgByteIdentical(t *testing.T) {
	inc := buildPsiProg(t, smt.Options{})
	raw := buildPsiProg(t, smt.Options{NoIncremental: true})
	if inc.NumVars() != raw.NumVars() {
		t.Fatalf("variable counts differ: incremental=%d from-scratch=%d",
			inc.NumVars(), raw.NumVars())
	}
	ci, cr := inc.Clauses(), raw.Clauses()
	if len(ci) != len(cr) {
		t.Fatalf("clause counts differ: incremental=%d from-scratch=%d", len(ci), len(cr))
	}
	for k := range ci {
		if len(ci[k]) != len(cr[k]) {
			t.Fatalf("clause %d widths differ: %v vs %v", k, ci[k], cr[k])
		}
		for j := range ci[k] {
			if ci[k][j] != cr[k][j] {
				t.Fatalf("clause %d differs: %v vs %v", k, ci[k], cr[k])
			}
		}
	}
}

// TestCFPIncrementalVsFromScratch: full Solve must land on the same verdict
// and instance shape either way.
func TestCFPIncrementalVsFromScratch(t *testing.T) {
	run := func(opts smt.Options) Result {
		p := arrayInitProblem()
		eng := optimal.New(smt.NewSolver(opts))
		res, err := Solve(p, eng, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc := run(smt.Options{})
	raw := run(smt.Options{NoIncremental: true})
	if inc.Found() != raw.Found() || inc.Clauses != raw.Clauses || inc.Vars != raw.Vars {
		t.Fatalf("CFP diverged: incremental=%+v from-scratch=%+v", inc, raw)
	}
	if inc.Found() && inc.Solution.Key() != raw.Solution.Key() {
		t.Fatalf("solutions differ: %v vs %v", inc.Solution, raw.Solution)
	}
}
