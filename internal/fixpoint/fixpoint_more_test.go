package fixpoint

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/template"
)

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	if o.MaxSteps != 500 || o.MaxCandidates != 64 {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{MaxSteps: 7}.normalize()
	if o.MaxSteps != 7 {
		t.Error("explicit MaxSteps overridden")
	}
}

func TestMaxStepsBoundRespected(t *testing.T) {
	p := arrayInitProblem()
	eng := newEngine()
	res, err := LeastFixedPoint(p, eng, Options{MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > 1 {
		t.Errorf("steps = %d, want <= 1", res.Steps)
	}
	if res.Found() {
		t.Skip("found within one step; bound not exercised")
	}
	if res.Exhausted {
		t.Error("hitting MaxSteps is not exhaustion")
	}
}

func TestAllModeCollectsMultipleSolutions(t *testing.T) {
	p := arrayInitProblem()
	eng := newEngine()
	res, err := GreatestFixedPoint(p, eng, Options{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatal("no solution in All mode")
	}
	if len(res.All) == 0 {
		t.Fatal("All mode must populate All")
	}
	// Every collected solution must actually be an invariant solution.
	for _, s := range res.All {
		if ok, fail := p.CheckAll(eng.S, s); !ok {
			t.Errorf("All-mode solution %v fails at %v", s, fail)
		}
	}
	// And they are pairwise distinct.
	seen := map[string]bool{}
	for _, s := range res.All {
		if seen[s.Key()] {
			t.Errorf("duplicate solution %v", s.Key())
		}
		seen[s.Key()] = true
	}
}

func TestStatsRecorded(t *testing.T) {
	p := arrayInitProblem()
	eng := newEngine()
	c := stats.New()
	if _, err := LeastFixedPoint(p, eng, Options{Stats: c}); err != nil {
		t.Fatal(err)
	}
	if c.Candidates().Count == 0 {
		t.Error("candidate counts not recorded")
	}
}

func TestValidateErrorPropagates(t *testing.T) {
	p := arrayInitProblem()
	p.Q = template.Domain{} // empty vocabulary: Validate fails
	if _, err := LeastFixedPoint(p, newEngine(), Options{}); err == nil {
		t.Error("expected a validation error")
	}
}

func TestStringRendersInvariants(t *testing.T) {
	p := arrayInitProblem()
	sigma := template.Solution{"v": template.NewPredSet(
		logic.LeF(logic.I(0), logic.V("j")), logic.LtF(logic.V("j"), logic.V("i")))}
	s := String(p, sigma)
	if !strings.Contains(s, "loop:") || !strings.Contains(s, "A[j] = 0") {
		t.Errorf("render = %q", s)
	}
}

// TestTwoLoopProgram exercises the worklist across two templated cut-points.
func TestTwoLoopProgram(t *testing.T) {
	prog := lang.MustParse(`
		program TwoPhase(array A, n) {
			i := 0;
			while first (i < n) {
				A[i] := 1;
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
			"first":  mk("forall j. ?a => A[j] = 1"),
			"second": mk("forall j. ?b => A[j] = 0"),
		},
		Q: template.Domain{"a": qs, "b": qs},
	}
	eng := newEngine()
	res, err := GreatestFixedPoint(p, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found() {
		t.Fatalf("two-loop program not proved (steps=%d exhausted=%v)", res.Steps, res.Exhausted)
	}
	if ok, fail := p.CheckAll(eng.S, res.Solution); !ok {
		t.Errorf("solution invalid at %v", fail)
	}
}
