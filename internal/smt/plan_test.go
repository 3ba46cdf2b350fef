package smt

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/stats"
)

// planCase grounds Fill(skel, fill) through a plan compiled from skel and
// fails unless the result is the multi-pass oracle's node.
func planCase(t *testing.T, s *Solver, pl *groundPlan, skel logic.Formula, fill map[string]logic.Formula) {
	t.Helper()
	f := logic.FillUnknowns(skel, fill)
	g, decided, valid, ok := pl.groundFill(fill)
	if !ok {
		t.Fatalf("plan could not express the fill of %s", f)
	}
	if msg := s.compareOracle(logic.Intern(f), g, decided, valid); msg != "" {
		t.Fatal(msg)
	}
}

var (
	pA, pB     = logic.AV("A"), logic.AV("B")
	px, py, pz = logic.V("x"), logic.V("y"), logic.V("z")
	pi, pj, pn = logic.V("i"), logic.V("j"), logic.V("n")
	pu, pv     = logic.Unknown{Name: "u"}, logic.Unknown{Name: "v"}
	allA0      = logic.All([]string{"k"}, logic.EqF(logic.Sel(pA, logic.V("k")), logic.I(0)))
	fillOf     = func(kv ...logic.Formula) map[string]logic.Formula {
		return map[string]logic.Formula{"u": kv[0], "v": kv[len(kv)-1]}
	}
	arrayInitVC  = logic.All([]string{"j"}, logic.Imp(logic.Conj(logic.LeF(logic.I(0), pj), pu), logic.EqF(logic.Sel(pA, pj), logic.I(0))))
	arrayInitHyp = logic.Imp(logic.Conj(arrayInitVC, logic.LtF(pi, pn)),
		logic.All([]string{"j"}, logic.Imp(logic.Conj(logic.LeF(logic.I(0), pj), pv),
			logic.EqF(logic.Sel(logic.Upd(pA, pi, logic.I(0)), pj), logic.I(0)))))
)

func TestPlanFillFoldsToTrue(t *testing.T) {
	s := NewSolver(Options{})
	skel := logic.Imp(logic.Conj(logic.LtF(px, py), pu), logic.LtF(px, pz))
	pl := newGroundPlan(s, skel)
	for _, fill := range []logic.Formula{logic.True, logic.LeF(px, px), logic.False, logic.LtF(py, pz)} {
		planCase(t, s, pl, skel, fillOf(fill))
	}
}

func TestPlanPredicateEqualsSkeletonConjunct(t *testing.T) {
	s := NewSolver(Options{})
	skel := logic.Imp(logic.Conj(logic.LtF(px, py), pu), logic.Disj(logic.LtF(px, pz), pv))
	pl := newGroundPlan(s, skel)
	planCase(t, s, pl, skel, fillOf(logic.Conj(logic.LtF(px, py), logic.LtF(py, pz)), logic.LtF(px, pz)))
	planCase(t, s, pl, skel, fillOf(logic.LtF(px, py), logic.Conj(logic.LtF(px, pz), logic.LtF(px, pz))))
}

func TestPlanQuantifiedPredicateBothPolarities(t *testing.T) {
	s := NewSolver(Options{})
	// u is a hypothesis (instantiated), v a conclusion (skolemized).
	skel := logic.Imp(logic.Conj(pu, logic.LeF(logic.I(0), pi)), logic.Conj(pv, logic.EqF(logic.Sel(pA, pi), logic.I(0))))
	pl := newGroundPlan(s, skel)
	planCase(t, s, pl, skel, fillOf(allA0, allA0))
	planCase(t, s, pl, skel, fillOf(allA0, logic.Any([]string{"k"}, logic.EqF(logic.Sel(pA, logic.V("k")), pi))))
	planCase(t, s, pl, skel, fillOf(logic.LtF(pi, pn), allA0))
}

func TestPlanPredicateCapturedBySkeletonQuantifier(t *testing.T) {
	s := NewSolver(Options{})
	pl := newGroundPlan(s, arrayInitHyp)
	for _, fill := range []map[string]logic.Formula{
		fillOf(logic.LtF(pj, pi), logic.LtF(pj, pi)),
		fillOf(logic.LtF(pj, pi), logic.LeF(pj, pi)),
		fillOf(logic.Conj(logic.LtF(pj, pi), logic.LtF(pj, pn)), logic.LeF(pj, pi)),
		fillOf(logic.True, logic.GtF(pj, pn)),
	} {
		planCase(t, s, pl, arrayInitHyp, fill)
	}
}

func TestPlanArrayEqualityInSkeleton(t *testing.T) {
	s := NewSolver(Options{})
	// The array equality before the holes becomes a quantifier that takes
	// the first @b name; one in the fill takes a later one.
	skel := logic.Imp(logic.Conj(logic.ArrEqF(pB, logic.Upd(pA, pi, logic.I(0))), pu),
		logic.Conj(pv, logic.EqF(logic.Sel(pB, pi), logic.I(0))))
	pl := newGroundPlan(s, skel)
	planCase(t, s, pl, skel, fillOf(logic.LtF(pi, pn), logic.LeF(logic.I(0), pi)))
	planCase(t, s, pl, skel, fillOf(logic.ArrEqF(pA, pB), logic.ArrEqF(pB, logic.Upd(pA, pi, logic.I(0)))))
	planCase(t, s, pl, skel, fillOf(allA0, logic.True))
}

func TestPlanInstanceCapBinds(t *testing.T) {
	s := NewSolver(Options{MaxInstances: 2})
	skel := logic.Imp(logic.Conj(pu, logic.All([]string{"a", "b"},
		logic.LeF(logic.Sel(pA, logic.V("a")), logic.Sel(pA, logic.V("b"))))),
		logic.Conj(pv, logic.LeF(logic.Sel(pA, pi), logic.Sel(pA, pj))))
	pl := newGroundPlan(s, skel)
	planCase(t, s, pl, skel, fillOf(logic.LtF(pi, pj), logic.LeF(logic.Sel(pA, pn), logic.Sel(pA, pz))))
	planCase(t, s, pl, skel, fillOf(allA0, logic.LeF(logic.Sel(pA, px), logic.Sel(pA, py))))
}

func TestPlanMissingFillFallsBack(t *testing.T) {
	s := NewSolver(Options{})
	skel := logic.Imp(pu, pv)
	ctx := s.ContextFor(logic.Intern(skel))
	fill := map[string]logic.Formula{"u": logic.LtF(px, py)}
	f := logic.Imp(logic.LtF(px, py), logic.LtF(px, pz))
	if ctx.ValidFill(f, fill) {
		t.Fatal("x<y ⇒ x<z reported valid")
	}
	if s.Counters()[stats.PlanFallbacks].Load() != 1 || s.Counters()[stats.PlanProbes].Load() != 0 {
		t.Fatalf("fallbacks=%d plan probes=%d, want 1 and 0", s.Counters()[stats.PlanFallbacks].Load(), s.Counters()[stats.PlanProbes].Load())
	}
}

// TestPlanConcurrentProbes grounds many fills of one skeleton through one
// plan from several goroutines at once (run it under -race): the shared
// memos, environments included, must neither race nor let one probe's
// result leak into another's.
func TestPlanConcurrentProbes(t *testing.T) {
	s := NewSolver(Options{})
	pl := newGroundPlan(s, arrayInitHyp)
	preds := []logic.Formula{
		logic.LtF(pj, pi), logic.LeF(pj, pi), logic.LtF(pj, pn), logic.GeF(pj, logic.I(0)),
		logic.GtF(pj, pi), allA0, logic.True,
	}
	var fills []map[string]logic.Formula
	for _, a := range preds {
		for _, b := range preds {
			fills = append(fills, fillOf(a, b), fillOf(logic.Conj(a, b), b))
		}
	}
	// Fills that add no candidate term share their environments across
	// the goroutines.
	for _, a := range []logic.Formula{logic.LtF(px, py), logic.LeF(px, py), logic.LtF(py, pz), logic.True} {
		fills = append(fills, fillOf(a, logic.LtF(pz, px)), fillOf(logic.LtF(px, pz), a))
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(fills))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range fills {
				fill := fills[(i+w*7)%len(fills)]
				f := logic.FillUnknowns(arrayInitHyp, fill)
				g, decided, valid, ok := pl.groundFill(fill)
				if !ok {
					errs <- fmt.Sprintf("plan could not express %s", f)
					return
				}
				if msg := s.compareOracle(logic.Intern(f), g, decided, valid); msg != "" {
					errs <- msg
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// notAll is ¬G for the formula G a probe's negation normalizes to: grounding
// Not{G} grounds G itself, so a test can write the instantiated formula.
func notAll(g logic.Formula) logic.Formula { return logic.Not{F: g} }

var (
	pk, pm = logic.V("k"), logic.V("m")
	pB0    = logic.All([]string{"m"}, logic.EqF(logic.Sel(pB, pm), logic.I(0)))
)

// TestPlanAbsorbedInstanceCollects grounds a probe whose universal's first
// instance simplifies to false inside a disjunction, so the instance
// conjunction stops early: only the collect pass sees the skipped instance
// k := y, whose index B[y] makes round 1 not converge, and B[y] = 0 joins
// the formula at round 2, where it converges.
func TestPlanAbsorbedInstanceCollects(t *testing.T) {
	s := NewSolver(Options{})
	skel := notAll(logic.Conj(
		logic.Disj(logic.All([]string{"k"}, logic.Conj(logic.LtF(pk, px),
			logic.EqF(logic.Sel(pA, pk), logic.I(0)), logic.EqF(logic.Sel(pB, pk), logic.I(0)))), pu),
		logic.EqF(logic.Sel(pA, px), logic.Sel(pA, py)), pB0))
	pl := newGroundPlan(s, skel)
	planCase(t, s, pl, skel, fillOf(logic.EqF(logic.Sel(pB, px), logic.I(1))))
	planCase(t, s, pl, skel, fillOf(logic.EqF(logic.Sel(pB, px), logic.I(2))))
}

// TestPlanTruncatedRoundsConverge grounds a probe whose universal keeps one
// candidate tuple (MaxInstances 1) of the fallback set {3, 5, 9} that
// changes from round to round: k := 3 adds the index 1, and then k := 1 adds
// only keys round 1 already had but drops 1 again. Round 2 therefore must
// compare environments with converged, which sees the smaller set and
// grounds a third round, rather than test the instance keys for membership,
// which would stop with B[5] = 9 in the formula.
func TestPlanTruncatedRoundsConverge(t *testing.T) {
	s := NewSolver(Options{MaxInstances: 1})
	idx := logic.Minus(logic.I(7), logic.Plus(pk, pk))
	skel := notAll(logic.Conj(
		logic.All([]string{"k"}, logic.Disj(logic.EqF(pk, logic.I(3)), logic.EqF(logic.Sel(pB, idx), logic.I(9)))), pu))
	pl := newGroundPlan(s, skel)
	planCase(t, s, pl, skel, fillOf(logic.EqF(logic.Sel(pB, logic.I(5)), logic.I(2))))
	planCase(t, s, pl, skel, fillOf(logic.LeF(logic.Sel(pB, logic.I(5)), logic.I(2))))
}

// TestPlanSharedEnvironment grounds probes whose fills add no candidate term
// and requires them to share environments: after the first probe built its
// rounds' environments, the others build none.
func TestPlanSharedEnvironment(t *testing.T) {
	built, remove := CountPlanEnvironments()
	defer remove()
	s := NewSolver(Options{})
	pl := newGroundPlan(s, arrayInitHyp)
	fills := []map[string]logic.Formula{
		fillOf(logic.LtF(px, py)), fillOf(logic.LeF(px, py)), fillOf(logic.LtF(py, pz)),
		fillOf(logic.LtF(px, py), logic.LeF(py, pz)), fillOf(logic.True, logic.LtF(pz, px)),
	}
	planCase(t, s, pl, arrayInitHyp, fills[0])
	first := built()
	if first == 0 {
		t.Fatal("the first probe built no environment")
	}
	for _, fill := range fills[1:] {
		planCase(t, s, pl, arrayInitHyp, fill)
	}
	if n := built(); n != first {
		t.Fatalf("%d probes with one candidate set built %d environments, the first alone %d", len(fills), n, first)
	}
}

// TestPlanMemoBounded grounds more distinct fills than a plan memoizes and
// requires the plan's memo to stay within its cap: a full generation is
// detached, and later probes ground from a fresh one, to the same formulas.
func TestPlanMemoBounded(t *testing.T) {
	s := NewSolver(Options{})
	pl := newGroundPlan(s, arrayInitHyp)
	pl.cap = 64
	first := pl.m
	for i := 0; i < 60; i++ {
		c := logic.I(int64(i))
		planCase(t, s, pl, arrayInitHyp, fillOf(logic.LtF(pj, logic.Plus(pi, c)), logic.LeF(pj, logic.Plus(pn, c))))
		pl.mu.Lock()
		n := pl.m.entries
		pl.mu.Unlock()
		if n > pl.cap {
			t.Fatalf("after %d probes the plan holds %d memo entries, cap %d", i+1, n, pl.cap)
		}
	}
	if pl.m == first {
		t.Fatal("no generation filled up: the test did not reach the cap")
	}
}
