package smt

import (
	"strings"
	"testing"
	"time"

	"repro/internal/lia"
	"repro/internal/logic"
	"repro/internal/store"
)

func openStoreT(t *testing.T, dir string, opts Options) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{
		Params:        opts.StoreParams(),
		FlushInterval: 5 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// storeProbeFormulas is a mix of valid and invalid quantifier-free and
// quantified formulas exercising both decision paths.
func storeProbeFormulas() []logic.Formula {
	x, y := logic.V("x"), logic.V("y")
	return []logic.Formula{
		logic.Implies{A: logic.LeF(x, y), B: logic.LeF(x, logic.Plus(y, logic.I(1)))},
		logic.Implies{A: logic.LeF(x, y), B: logic.LeF(y, x)},
		logic.Implies{
			A: logic.And{Fs: []logic.Formula{logic.LeF(x, logic.I(5)), logic.LeF(logic.I(5), x)}},
			B: logic.EqF(x, logic.I(5)),
		},
		logic.Implies{A: logic.EqF(x, logic.I(3)), B: logic.LeF(logic.Mul{C: 2, X: x}, logic.I(7))},
		logic.LeF(logic.Plus(x, y), logic.Plus(y, x)),
	}
}

// TestWarmStartVerdictsIdentical is the smt-layer warm-start contract: a
// solver attached to a reopened store answers previously decided formulas
// from it — zero from-scratch queries — with identical verdicts.
func TestWarmStartVerdictsIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}

	st := openStoreT(t, dir, opts)
	cold := NewSolver(Options{Store: st})
	var want []bool
	for _, f := range storeProbeFormulas() {
		want = append(want, cold.Valid(f))
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if cold.NumQueries() == 0 {
		t.Fatal("cold solver decided nothing")
	}

	st2 := openStoreT(t, dir, opts)
	defer st2.Close()
	if st2.Stats().ColdStart {
		t.Fatal("reopen reported cold start")
	}
	warm := NewSolver(Options{Store: st2})
	for i, f := range storeProbeFormulas() {
		if got := warm.Valid(f); got != want[i] {
			t.Errorf("formula %d: warm verdict %v != cold %v", i, got, want[i])
		}
	}
	if n := warm.NumQueries(); n != 0 {
		t.Errorf("warm solver ran %d from-scratch queries, want 0", n)
	}
	if n := warm.NumStoreVerdictHits(); n != int64(len(want)) {
		t.Errorf("store verdict hits = %d, want %d", n, len(want))
	}
}

// TestStoreParamsMismatchStartsCold asserts that changed solver bounds
// sideline the persisted verdicts rather than replaying them.
func TestStoreParamsMismatchStartsCold(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir, Options{})
	s := NewSolver(Options{Store: st})
	s.Valid(storeProbeFormulas()[0])
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	changed := Options{InstRounds: 7}
	st2 := openStoreT(t, dir, changed)
	defer st2.Close()
	if !st2.Stats().ColdStart {
		t.Error("params change did not force a cold start")
	}
}

// TestWarmLemmaSeeding asserts that theory lemmas learned by a context
// reach the store and seed the skeleton's context in the next lifetime: a
// probe that misses the verdict store re-interns every seeded lemma into the
// context's SAT instance, and so does the first probe after a reset.
func TestWarmLemmaSeeding(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}
	x, y, z, w := logic.V("x"), logic.V("y"), logic.V("z"), logic.V("w")
	// A skeleton whose probes force theory conflicts (transitivity lemmas).
	skel := logic.Implies{
		A: logic.And{Fs: []logic.Formula{logic.LeF(x, y), logic.LeF(y, z)}},
		B: logic.LeF(x, z),
	}
	// weaken(k) is skel with its conclusion weakened by w ≤ k: a formula the
	// cold lifetime never decided, refuted by the same transitivity lemma.
	weaken := func(k int64) logic.Formula {
		return logic.Implies{A: skel.A, B: logic.Or{Fs: []logic.Formula{skel.B, logic.LeF(w, logic.I(k))}}}
	}
	ctxOf := func(s *Solver) *Context {
		c := s.ContextFor(logic.Intern(skel))
		if c == nil {
			t.Fatal("no context")
		}
		return c
	}

	st := openStoreT(t, dir, opts)
	cold := NewSolver(Options{Store: st})
	coldV := ctxOf(cold).Valid(skel)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Stats().Appended == 0 {
		t.Fatal("cold run persisted nothing")
	}

	st2 := openStoreT(t, dir, opts)
	defer st2.Close()
	warm := NewSolver(Options{Store: st2})
	c := ctxOf(warm)
	if warmV := c.Valid(skel); warmV != coldV {
		t.Errorf("warm verdict %v != cold %v", warmV, coldV)
	}
	seeded := int(warm.NumWarmLemmas())
	if seeded == 0 {
		t.Fatal("warm run seeded no lemmas")
	}
	missProbe := func(what string, f logic.Formula) {
		t.Helper()
		hits := warm.NumStoreVerdictHits()
		got := c.Valid(f)
		if warm.NumStoreVerdictHits() != hits {
			t.Fatalf("%s: the probe hit the verdict store", what)
		}
		if want := freshVerdict(f); got != want {
			t.Errorf("%s: warm verdict %v, cold %v", what, got, want)
		}
		c.mu.Lock()
		imported := c.imported
		c.mu.Unlock()
		if imported != seeded {
			t.Errorf("%s: %d lemmas imported, %d seeded", what, imported, seeded)
		}
	}
	missProbe("first miss", weaken(0))
	c.mu.Lock()
	c.reset()
	c.mu.Unlock()
	missProbe("after reset", weaken(1))
}

// TestLearntLemmasCarryOverReset follows the lemmas a store-attached
// context learns: they are recorded by grounder atom, written to the store
// with their variables named, named the same way when a reset drops the
// grounder they index, and re-imported into the new instance, whose later
// verdicts still match a fresh solver's.
func TestLearntLemmasCarryOverReset(t *testing.T) {
	st := openStoreT(t, t.TempDir(), Options{})
	defer st.Close()
	s := NewSolver(Options{Store: st})
	x, y, z := logic.V("x"), logic.V("y"), logic.V("z")
	skel := logic.Implies{
		A: logic.And{Fs: []logic.Formula{logic.LeF(x, y), logic.LeF(y, z)}},
		B: logic.LeF(x, z),
	}
	c := s.ContextFor(logic.Intern(skel))
	if c == nil || !c.Valid(skel) {
		t.Fatal("x ≤ y ∧ y ≤ z ⇒ x ≤ z not proved through a context")
	}
	lemmaKeys := func(lins []lia.Lin) string {
		var b strings.Builder
		for _, l := range lins {
			b.WriteString(l.Key() + ";")
		}
		return b.String()
	}
	c.mu.Lock()
	var before []string
	for _, lem := range c.lemmas {
		if lem.atoms == nil {
			t.Fatal("a lemma learnt by the current instance carries no atoms")
		}
		before = append(before, lemmaKeys(c.g.named(lem.atoms)))
	}
	if len(before) == 0 {
		t.Fatal("the probe learnt no lemma")
	}
	stored := st.Lemmas(c.skel)
	if len(stored) != len(before) {
		t.Fatalf("%d lemmas learnt, %d stored", len(before), len(stored))
	}
	for i, lem := range stored {
		if got := lemmaKeys(lem.Lins); got != before[i] {
			t.Errorf("lemma %d stored as %s, learnt as %s", i, got, before[i])
		}
	}
	c.reset()
	for i, lem := range c.lemmas {
		if lem.atoms != nil || lemmaKeys(lem.lins) != before[i] {
			t.Errorf("lemma %d after reset: atoms %v, named %s; want %s", i, lem.atoms, lemmaKeys(lem.lins), before[i])
		}
	}
	c.mu.Unlock()
	for _, f := range []logic.Formula{logic.LeF(x, z), skel, logic.Implies{A: logic.LeF(x, y), B: logic.LeF(x, z)}} {
		if got, want := c.Valid(f), freshVerdict(f); got != want {
			t.Errorf("after reset, %s: %v, fresh %v", f, got, want)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.imported != len(before) {
		t.Errorf("%d lemmas re-imported after reset, want %d", c.imported, len(before))
	}
}
