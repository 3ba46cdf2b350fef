package smt

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/stats"
)

// compiledRun probes one context with a sequence of fills of skel and
// requires each verdict to be the one a store-less NoIncremental solver
// gives the filled formula; nv counts the valid verdicts.
type compiledRun struct {
	t    *testing.T
	s    *Solver
	c    *Context
	ref  *Solver
	skel logic.Formula
	nv   int
}

func newCompiledRun(t *testing.T, skel logic.Formula) *compiledRun {
	s := NewSolver(Options{})
	return &compiledRun{t: t, s: s, c: s.ContextFor(logic.Intern(skel)), ref: NewSolver(Options{NoIncremental: true}), skel: skel}
}

func (r *compiledRun) probe(fill map[string]logic.Formula) {
	r.t.Helper()
	f := logic.FillUnknowns(r.skel, fill)
	got, want := r.c.ValidFill(f, fill), r.ref.Valid(f)
	if got != want {
		r.t.Fatalf("probe %s: context says valid=%v, a NoIncremental solver %v", f, got, want)
	}
	if got {
		r.nv++
	}
}

// requireCompiled fails unless n probes were decided over the compiled
// skeleton, none grounded through the plan, and both verdicts occurred.
func (r *compiledRun) requireCompiled(n int) {
	r.t.Helper()
	ctr := r.s.Counters()
	if p, g := ctr[stats.AssumptionProbes].Load(), ctr[stats.PlanProbes].Load(); p != int64(n) || g != 0 {
		r.t.Fatalf("%d compiled probes and %d plan probes, want %d and 0", p, g, n)
	}
	if r.nv == 0 || r.nv == n {
		r.t.Fatalf("%d of %d probes valid: the case does not tell the verdicts apart", r.nv, n)
	}
}

var (
	pjLti   = logic.LtF(pj, pi)
	pjGe0   = logic.GeF(pj, logic.I(0))
	pjLen   = logic.LeF(pj, pn)
	pjLei   = logic.LeF(pj, pi)
	pjLtiP1 = logic.LtF(pj, logic.Add{X: pi, Y: logic.I(1)})
)

// TestCompiledUniverseGrows probes ArrayInit's preservation VC with
// predicates the context meets one by one, so each new one grows its hole's
// universe after the skeleton was first compiled, and some probes drop
// predicates an earlier probe selected (their selectors assumed false).
func TestCompiledUniverseGrows(t *testing.T) {
	r := newCompiledRun(t, arrayInitHyp)
	fills := []map[string]logic.Formula{
		fillOf(pjLti, pjLti),
		fillOf(pjLti, pjLen),
		fillOf(pjLti, pjLtiP1),
		fillOf(logic.Conj(pjGe0, pjLti), pjLei),
		fillOf(pjLei, logic.True),
		fillOf(logic.Conj(pjGe0, pjLen), logic.Conj(pjLti, pjLen)),
		fillOf(pjLti, logic.Conj(pjGe0, pjLei)),
		fillOf(logic.Conj(pjGe0, pjLti, pjLen), pjLei),
	}
	for _, fill := range fills {
		r.probe(fill)
	}
	r.requireCompiled(len(fills))
}

// TestCompiledReset recycles the context between compiled probes, as a
// ctxMaxVars reset does: the next probe compiles its skeleton into the new
// SAT instance and answers as before.
func TestCompiledReset(t *testing.T) {
	r := newCompiledRun(t, arrayInitHyp)
	fills := []map[string]logic.Formula{
		fillOf(pjLti, pjLei),
		fillOf(pjLti, pjLen),
		fillOf(logic.Conj(pjGe0, pjLti), pjLtiP1),
		fillOf(pjLti, logic.Conj(pjGe0, pjLen)),
	}
	for i, fill := range fills {
		if i > 0 {
			r.c.mu.Lock()
			r.c.reset()
			r.c.mu.Unlock()
		}
		r.probe(fill)
	}
	r.requireCompiled(len(fills))
}

// TestCompiledQuantifiedFallback mixes probes whose fill has a quantified
// predicate, which keep the per-probe plan path, with probes the compiled
// skeleton decides, in one context and both orders.
func TestCompiledQuantifiedFallback(t *testing.T) {
	r := newCompiledRun(t, arrayInitHyp)
	r.probe(fillOf(pjLti, pjLei))
	r.probe(fillOf(logic.Conj(pjLti, allA0), pjLei))
	r.probe(fillOf(pjGe0, allA0))
	r.probe(fillOf(logic.Conj(pjGe0, pjLti), pjLtiP1))
	ctr := r.s.Counters()
	if p, g := ctr[stats.AssumptionProbes].Load(), ctr[stats.PlanProbes].Load(); g != 2 || p != 4 {
		t.Fatalf("%d plan probes of %d context probes, want 2 of 4", g, p)
	}
}

// TestCompiledTwoEnvironments probes one context with fills that bring
// different candidate terms, so its universal is instantiated over two
// environments, each behind its own env literal. The first probe selects
// every predicate, so no later one grows a universe (which would rebuild
// the env literals).
func TestCompiledTwoEnvironments(t *testing.T) {
	r := newCompiledRun(t, arrayInitHyp)
	ax := logic.EqF(logic.Sel(pA, px), logic.I(0))
	fills := []map[string]logic.Formula{
		fillOf(logic.Conj(pjGe0, pjLti, ax), logic.Conj(pjGe0, pjLei, pjLen)),
		fillOf(pjLti, pjLei),
		fillOf(logic.Conj(pjLti, ax), pjLen),
		fillOf(pjLti, pjLen),
		fillOf(logic.Conj(pjGe0, ax), pjLei),
	}
	for _, fill := range fills {
		r.probe(fill)
	}
	r.requireCompiled(len(fills))
	if n := len(r.c.comp.envs); n < 2 {
		t.Fatalf("%d env literals, want at least 2", n)
	}
}

// TestCompiledConcurrentProbes probes one context's compiled skeleton from
// several goroutines at once (run it under -race): the shared plan memos,
// shapes and encodings must neither race nor let one probe's selection or
// environment leak into another's verdict.
func TestCompiledConcurrentProbes(t *testing.T) {
	preds := []logic.Formula{pjLti, pjGe0, pjLen, pjLei, pjLtiP1, logic.EqF(logic.Sel(pA, px), logic.I(0)), allA0, logic.True}
	var fills []map[string]logic.Formula
	for _, a := range preds {
		for _, b := range preds {
			fills = append(fills, fillOf(a, b), fillOf(logic.Conj(a, pjGe0), b))
		}
	}
	ref := NewSolver(Options{NoIncremental: true})
	fs := make([]logic.Formula, len(fills))
	want := make([]bool, len(fills))
	for i, fill := range fills {
		fs[i] = logic.FillUnknowns(arrayInitHyp, fill)
		want[i] = ref.Valid(fs[i])
	}
	s := NewSolver(Options{})
	ctx := s.ContextFor(logic.Intern(arrayInitHyp))
	const workers = 4
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range fills {
				i := (k + w*5) % len(fills)
				if got := ctx.ValidFill(fs[i], fills[i]); got != want[i] {
					errs <- fmt.Sprintf("probe %s: context says valid=%v, a NoIncremental solver %v", fs[i], got, want[i])
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
	if s.Counters()[stats.AssumptionProbes].Load() == 0 {
		t.Fatal("no probe was decided over the compiled skeleton")
	}
}
