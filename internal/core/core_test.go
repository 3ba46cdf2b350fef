package core

import (
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/template"
)

func arrayInitProblem() *spec.Problem {
	prog := lang.MustParse(`
		program ArrayInit(array A, n) {
			i := 0;
			while loop (i < n) {
				A[i] := 0;
				i := i + 1;
			}
			assert(forall j. (0 <= j && j < n) => A[j] = 0);
		}`)
	qs := []logic.Formula{}
	for _, s := range []string{"j < 0", "j >= 0", "j < i", "j <= i", "j < n", "j <= n"} {
		qs = append(qs, lang.MustParseFormula(s))
	}
	return &spec.Problem{
		Prog:      prog,
		Templates: map[string]logic.Formula{"loop": lang.MustParseFormula("forall j. ?v => A[j] = 0")},
		Q:         template.Domain{"v": qs},
	}
}

func TestVerifyAllMethods(t *testing.T) {
	c := stats.New()
	v := New(Config{Stats: c})
	for _, m := range Methods {
		out, err := v.Verify(arrayInitProblem(), m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !out.Proved {
			t.Errorf("%v: not proved", m)
		}
		if out.Invariants["loop"] == nil {
			t.Errorf("%v: no loop invariant reported", m)
		}
		if out.Duration <= 0 || out.Steps <= 0 {
			t.Errorf("%v: missing metrics: %+v", m, out)
		}
	}
	if c.Queries().Count == 0 {
		t.Error("stats collector received no queries")
	}
}

func TestVerifyUnprovable(t *testing.T) {
	v := New(Config{})
	p := arrayInitProblem()
	p.Q = template.Domain{"v": {lang.MustParseFormula("j < n")}}
	out, err := v.Verify(p, GFP)
	if err != nil {
		t.Fatal(err)
	}
	if out.Proved {
		t.Error("should not be provable with only j<n")
	}
}

func TestInferPreconditionsRequiresEntryTemplate(t *testing.T) {
	v := New(Config{})
	if _, _, err := v.InferPreconditions(arrayInitProblem()); err == nil {
		t.Error("expected an error without an entry template")
	}
}

func TestInferPostconditionsRequiresExitTemplate(t *testing.T) {
	v := New(Config{})
	if _, _, err := v.InferPostconditions(arrayInitProblem()); err == nil {
		t.Error("expected an error without an exit template")
	}
}

func TestMethodString(t *testing.T) {
	if LFP.String() != "LFP" || GFP.String() != "GFP" || CFP.String() != "CFP" {
		t.Error("method names")
	}
	if !strings.Contains(Method(42).String(), "42") {
		t.Error("unknown method formatting")
	}
}

func TestFormatOutcome(t *testing.T) {
	v := New(Config{})
	out, err := v.Verify(arrayInitProblem(), GFP)
	if err != nil {
		t.Fatal(err)
	}
	s := FormatOutcome(out)
	if !strings.Contains(s, "GFP: proved") || !strings.Contains(s, "loop:") {
		t.Errorf("format: %q", s)
	}
	s = FormatOutcome(Outcome{Method: LFP})
	if !strings.Contains(s, "no invariant") {
		t.Errorf("negative format: %q", s)
	}
}

func TestInferPostconditionsArrayInit(t *testing.T) {
	// Attach an exit template and let LFP compute the strongest
	// postcondition: all of A[0..n) is zero... expressed over the exit
	// template's own unknown.
	p := arrayInitProblem()
	p.Templates["exit"] = lang.MustParseFormula("forall j. ?post => A[j] = 0")
	p.Q["post"] = p.Q["v"]
	v := New(Config{})
	posts, _, err := v.InferPostconditions(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) == 0 {
		t.Fatal("no postcondition found")
	}
	// Among the maximally-strong postconditions there must be one covering
	// 0 ≤ j < n. (Another incomparable maximal one, phrased over the loop
	// counter i, may also be reported.)
	eng := v.Engine()
	covered := false
	for _, post := range posts {
		if eng.S.Valid(logic.Imp(post.Post,
			lang.MustParseFormula("forall j. (0 <= j && j < n) => A[j] = 0"))) {
			covered = true
		}
	}
	if !covered {
		t.Errorf("no postcondition covers [0,n): %v", posts)
	}
}
