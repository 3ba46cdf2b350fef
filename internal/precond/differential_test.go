package precond

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/fixpoint"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/optimal"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/template"
)

// randAtom draws a small comparison atom over the given variables — the
// difference fragment every benchmark vocabulary lives in.
func randAtom(rng *rand.Rand, vars []string) logic.Formula {
	ops := []string{"=", "<", "<=", ">", ">="}
	lhs := vars[rng.Intn(len(vars))]
	k := rng.Intn(5) - 2
	if rng.Intn(2) == 0 {
		return lang.MustParseFormula(fmt.Sprintf("%s %s %d", lhs, ops[rng.Intn(len(ops))], k))
	}
	rhs := vars[rng.Intn(len(vars))]
	return lang.MustParseFormula(fmt.Sprintf("%s %s %s + %d", lhs, ops[rng.Intn(len(ops))], rhs, k))
}

// randProblem builds a random loop-free precondition-inference task: one
// assignment, one assertion, an entry template over a random vocabulary.
// Loop-free tasks keep each trial fast while still exercising the full §6
// pipeline (exhaustive GFP + extremal filtering).
func randProblem(rng *rand.Rand) *spec.Problem {
	c := rng.Intn(5) - 2
	prog := lang.MustParse(fmt.Sprintf(`
		program T(x, y) {
			x := x + %d;
			assert(%s);
		}`, c, randAtom(rng, []string{"x", "y"})))
	n := 2 + rng.Intn(3)
	preds := make([]logic.Formula, n)
	for i := range preds {
		preds[i] = randAtom(rng, []string{"x", "y"})
	}
	return &spec.Problem{
		Prog:      prog,
		Templates: map[string]logic.Formula{"entry": logic.Unknown{Name: "pre"}},
		Q:         template.Domain{"pre": preds},
	}
}

// crossCheck installs a CrossCheck hook on eng that fails t when any group
// search's map-guided and BFS solution lists differ as sets, and returns the
// number of group searches checked so far. The hook can fire from parallel
// seeding workers, so the count is atomic.
func crossCheck(t *testing.T, eng *optimal.Engine) func() int64 {
	var checked atomic.Int64
	eng.Opts.CrossCheck = func(phi logic.Formula, mapSols, bfsSols []template.Solution) {
		checked.Add(1)
		if !sameSolutionSets(mapSols, bfsSols) {
			t.Errorf("map/bfs solution sets differ on %v\n  map: %v\n  bfs: %v", phi, mapSols, bfsSols)
		}
	}
	return checked.Load
}

func sameSolutionSets(a, b []template.Solution) bool {
	ka := map[string]bool{}
	for _, s := range a {
		ka[s.Key()] = true
	}
	kb := map[string]bool{}
	for _, s := range b {
		kb[s.Key()] = true
	}
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if !kb[k] {
			return false
		}
	}
	return true
}

// TestMapVsBFSPreconditions is the §6 leg of the differential sweep
// (`make test-differential`): on randomized tasks, every group search the
// map-solver-guided enumeration runs must return the same solution set as
// the reference BFS on the same group. The §6 pipeline leans on the
// enumerators harder than plain verification does (Options.All exhausts
// every fixed point, then filterExtremal compares them pairwise), so it
// reaches group searches plain verification does not.
func TestMapVsBFSPreconditions(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized §6 differential sweep skipped in -short mode (run via make test-differential)")
	}
	rng := rand.New(rand.NewSource(71))
	nonEmpty := 0
	var groups int64
	for trial := 0; trial < 60; trial++ {
		p := randProblem(rng)
		eng := optimal.New(smt.NewSolver(smt.Options{}))
		checked := crossCheck(t, eng)
		pres, enum, err := MaximallyWeak(p, eng, fixpoint.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if enum.Truncated || enum.Aborted {
			t.Fatalf("trial %d: incomplete enumeration %+v", trial, enum)
		}
		if t.Failed() {
			t.Fatalf("trial %d: problem: %s", trial, p.Prog)
		}
		groups += checked()
		if len(pres) > 0 {
			nonEmpty++
		}
	}
	if groups == 0 {
		t.Error("CrossCheck hook never fired; sweep vacuous")
	}
	if nonEmpty == 0 {
		t.Error("every trial produced an empty precondition set; sweep vacuous")
	}
	t.Logf("%d/60 trials produced preconditions, %d group searches cross-checked", nonEmpty, groups)
}

// TestMapVsBFSGuardedInit pins the sweep's property on the package's
// canonical loopy task, so the loop/quantifier path is differentially
// covered too (the randomized trials stay loop-free for speed).
func TestMapVsBFSGuardedInit(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	eng := newEngine()
	checked := crossCheck(t, eng)
	pres, _, err := MaximallyWeak(guardedInit(), eng, fixpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres) == 0 {
		t.Fatal("no preconditions found")
	}
	if checked() == 0 {
		t.Error("CrossCheck hook never fired; sweep vacuous")
	}
}
