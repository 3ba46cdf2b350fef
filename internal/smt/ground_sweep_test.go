package smt_test

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/smt"
	"repro/internal/spec"
)

// sweepCell is one problem of the grounding sweep with the methods to run on
// it (nil means precondition inference).
type sweepCell struct {
	name    string
	build   func() *spec.Problem
	methods []core.Method
}

// sweepCells lists every problem the examples/ programs exercise (LFP, GFP,
// CFP and precondition inference), then every DefaultSuite cell.
func sweepCells() []sweepCell {
	cells := []sweepCell{
		{"example ArrayInit", bench.ArrayInit, core.Methods},
		{"example Quick Sort (inner) sortedness", bench.QuickSortInnerSorted, []core.Method{core.LFP}},
		{"example Quick Sort (inner) preservation", bench.QuickSortInnerPreserves, []core.Method{core.LFP, core.CFP}},
		{"example Bubble Sort (flag) sortedness", bench.BubbleSortFlagSorted, []core.Method{core.GFP}},
		{"example Bubble Sort (flag) preservation", bench.BubbleSortFlagPreserves, core.Methods},
		{"example Partial Init precondition", bench.PartialInit, nil},
		{"example Init Synthesis precondition", bench.InitSynthesis, nil},
		{"example Quick Sort (inner) worst case", bench.QuickSortInnerWorstCase, nil},
	}
	for _, t := range bench.DefaultSuite() {
		c := sweepCell{name: "suite " + t.Name + " " + t.Property, build: t.Build, methods: t.Methods}
		switch {
		case t.Kind == bench.Precondition:
			c.methods = nil
		case len(c.methods) == 0:
			c.methods = core.Methods
		}
		cells = append(cells, c)
	}
	return cells
}

// runCell runs every method of one sweep cell on a fresh verifier.
func runCell(t *testing.T, c sweepCell) *core.Verifier {
	t.Helper()
	v := core.New(core.Config{})
	if c.methods == nil {
		if _, _, err := v.InferPreconditions(c.build()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return v
	}
	for _, m := range c.methods {
		if _, err := v.Verify(c.build(), m); err != nil {
			t.Fatalf("%s %v: %v", c.name, m, err)
		}
	}
	return v
}

// mismatchLog collects the failures a package-wide cross-check hook reports,
// from any goroutine.
type mismatchLog struct {
	mu    sync.Mutex
	n     int
	first string
}

func (l *mismatchLog) fail(msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		l.first = msg
	}
	l.n++
}

func (l *mismatchLog) read() (int, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n, l.first
}

// TestGroundPlanMatchesOracle runs every sweep cell with every grounded probe
// also grounded by the multi-pass oracle, and requires the interned results
// to be the same node: the plan may only change how grounding is computed,
// never what it produces. This is the `make test-differential` guarantee
// behind grounding through plans.
func TestGroundPlanMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("grounding oracle sweep skipped in -short mode (run via make test-differential)")
	}
	var log mismatchLog
	checked, remove := smt.CrossCheckGrounding(log.fail)
	defer remove()
	plans := int64(0)
	for _, c := range sweepCells() {
		plans += runCell(t, c).Engine().S.NumPlanProbes()
		if bad, first := log.read(); bad > 0 {
			t.Fatalf("%s: %d probes ground differently from the oracle; first differing probe:\n%s", c.name, bad, first)
		}
	}
	if checked() == 0 || plans == 0 {
		t.Fatalf("sweep vacuous: %d probes checked, %d grounded by plans", checked(), plans)
	}
	t.Logf("%d grounded probes checked, %d through plans", checked(), plans)
}

// TestConeProbesMatchAllOn runs every sweep cell with every context probe
// re-decided on its lane with all SAT variables switched on, and requires
// the same verdict: deciding only the probe's cone may change the search
// order, never an answer. This is the `make test-differential` guarantee
// behind switching off other probes' gates.
func TestConeProbesMatchAllOn(t *testing.T) {
	if testing.Short() {
		t.Skip("cone sweep skipped in -short mode (run via make test-differential)")
	}
	var log mismatchLog
	checked, remove := smt.CrossCheckCones(log.fail)
	defer remove()
	for _, c := range sweepCells() {
		runCell(t, c)
		if bad, first := log.read(); bad > 0 {
			t.Fatalf("%s: %d context probes answer differently with every variable on; first:\n%s", c.name, bad, first)
		}
	}
	if checked() == 0 {
		t.Fatal("sweep vacuous: no context probe checked")
	}
	t.Logf("%d context probes checked", checked())
}
