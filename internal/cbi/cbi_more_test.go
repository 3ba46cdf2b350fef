package cbi

import (
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/optimal"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/template"
)

func newEngine() *optimal.Engine { return optimal.New(smt.NewSolver(smt.Options{})) }

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.MaxModels != 64 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestStatsRecordSATSize(t *testing.T) {
	p := arrayInitProblem()
	eng := newEngine()
	c := stats.New()
	res, err := Solve(p, eng, Options{Stats: c})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("not proved")
	}
	clauses, vars := c.SATSizes()
	if clauses.Count != 1 || clauses.Max != res.Clauses || vars.Max != res.Vars {
		t.Errorf("stats = %d×%d/%d, result = %d/%d", clauses.Count, clauses.Max, vars.Max, res.Clauses, res.Vars)
	}
	// Figure 9's claim: the encoding stays small (paper: < 500 clauses).
	if res.Clauses >= 500 {
		t.Errorf("ψ_Prog has %d clauses; the paper's bound is 500", res.Clauses)
	}
}

func TestValidationErrorPropagates(t *testing.T) {
	p := arrayInitProblem()
	p.Q = template.Domain{}
	if _, err := Solve(p, newEngine(), Options{}); err == nil {
		t.Error("expected validation error")
	}
}

// TestUnknownsAcrossTwoTemplates exercises the orig-mapping machinery when
// source and target templates differ (no renaming needed) and when they are
// the same (loop paths rename τ2's unknowns).
func TestUnknownsAcrossTwoTemplates(t *testing.T) {
	prog := lang.MustParse(`
		program TwoPhase(array A, n) {
			i := 0;
			while first (i < n) {
				A[i] := 5;
				i := i + 1;
			}
			i := 0;
			while second (i < n) {
				A[i] := 0;
				i := i + 1;
			}
			assert(forall j. (0 <= j && j < n) => A[j] = 0);
		}`)
	mk := lang.MustParseFormula
	qs := []logic.Formula{mk("0 <= j"), mk("j < i"), mk("j < n"), mk("j < 0")}
	p := &spec.Problem{
		Prog: prog,
		Templates: map[string]logic.Formula{
			"first":  mk("forall j. ?a => A[j] = 5"),
			"second": mk("forall j. ?b => A[j] = 0"),
		},
		Q: template.Domain{"a": qs, "b": qs},
	}
	eng := newEngine()
	res, err := Solve(p, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatalf("two-template CFP failed (models=%d)", res.Models)
	}
	if ok, fail := p.CheckAll(eng.S, res.Solution); !ok {
		t.Errorf("decoded solution invalid at %v", fail)
	}
}

// TestDecodedSolutionIsReverified ensures CFP never returns a solution that
// fails VC(Prog, σ): when predicates cannot prove the program, it reports
// not-found rather than a bogus solution.
func TestDecodedSolutionIsReverified(t *testing.T) {
	p := arrayInitProblem()
	p.Q = template.Domain{"v": {lang.MustParseFormula("j < n"), lang.MustParseFormula("j <= n")}}
	eng := newEngine()
	res, err := Solve(p, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		if ok, fail := p.CheckAll(eng.S, res.Solution); !ok {
			t.Fatalf("returned invalid solution %v (fails %v)", res.Solution, fail)
		}
	}
}

func TestSharesUnknowns(t *testing.T) {
	a := logic.Unknown{Name: "a"}
	b := logic.Unknown{Name: "b"}
	if !sharesUnknowns(a, logic.Conj(b, a)) {
		t.Error("shared unknown not detected")
	}
	if sharesUnknowns(a, b) {
		t.Error("false positive")
	}
}
