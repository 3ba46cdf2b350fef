package smt_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/stats"
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

// runCell runs every method of one sweep cell on a fresh verifier and
// renders what the run decided, method by method: verdict, step count, the
// Truncated and Aborted flags, and the invariants by cut point (or the
// preconditions in order).
func runCell(t *testing.T, c sweepCell) (*core.Verifier, []string) {
	t.Helper()
	v := core.New(core.Config{})
	if c.methods == nil {
		pres, enum, err := v.InferPreconditions(c.build())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rec := []string{fmt.Sprintf("precond steps=%d truncated=%v aborted=%v", enum.Steps, enum.Truncated, enum.Aborted)}
		for _, p := range pres {
			rec = append(rec, "  pre "+p.Pre.String())
		}
		return v, rec
	}
	var rec []string
	for _, m := range c.methods {
		out, err := v.Verify(c.build(), m)
		if err != nil {
			t.Fatalf("%s %v: %v", c.name, m, err)
		}
		rec = append(rec, fmt.Sprintf("%v proved=%v steps=%d truncated=%v aborted=%v", m, out.Proved, out.Steps, out.Truncated, out.Aborted))
		cuts := make([]string, 0, len(out.Invariants))
		for cut := range out.Invariants {
			cuts = append(cuts, cut)
		}
		sort.Strings(cuts)
		for _, cut := range cuts {
			rec = append(rec, "  "+cut+": "+out.Invariants[cut].String())
		}
	}
	return v, rec
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
// never what it produces. Since compiled skeletons decide most probes
// without grounding them (TestCompiledProbesMatchOracle checks those), the
// probes grounded here are the ones the compiled skeleton cannot express
// (a quantified fill predicate) and whole-formula queries. This is the
// `make test-differential` guarantee behind grounding through plans.
func TestGroundPlanMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("grounding oracle sweep skipped in -short mode (run via make test-differential)")
	}
	var log mismatchLog
	checked, remove := smt.CrossCheckGrounding(log.fail)
	defer remove()
	envs, removeEnvs := smt.CountPlanEnvironments()
	defer removeEnvs()
	plans := int64(0)
	for _, c := range sweepCells() {
		v, _ := runCell(t, c)
		plans += v.Engine().S.Counters()[stats.PlanProbes].Load()
		if bad, first := log.read(); bad > 0 {
			t.Fatalf("%s: %d probes ground differently from the oracle; first differing probe:\n%s", c.name, bad, first)
		}
	}
	if checked() == 0 || plans == 0 {
		t.Fatalf("sweep vacuous: %d probes checked, %d grounded by plans", checked(), plans)
	}
	t.Logf("%d grounded probes checked, %d through plans, %d distinct candidate environments", checked(), plans, envs())
}

// TestCompiledProbesMatchOracle runs every sweep cell with every probe
// decided over a compiled skeleton also decided through the multi-pass
// oracle, on a one-shot context of a solver with no store, and requires the
// same verdict: selector and env-literal assumptions may only change how a
// probe is decided, never its answer. This is the `make test-differential`
// guarantee behind compiled skeletons.
func TestCompiledProbesMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("compiled-probe sweep skipped in -short mode (run via make test-differential)")
	}
	var log mismatchLog
	checked, remove := smt.CrossCheckCompiled(log.fail)
	defer remove()
	plans := int64(0)
	for _, c := range sweepCells() {
		v, _ := runCell(t, c)
		plans += v.Engine().S.Counters()[stats.PlanProbes].Load()
		if bad, first := log.read(); bad > 0 {
			t.Fatalf("%s: %d compiled probes answer differently from the oracle; first:\n%s", c.name, bad, first)
		}
	}
	if checked() == 0 {
		t.Fatal("sweep vacuous: no compiled probe checked")
	}
	t.Logf("%d compiled probes checked, %d probes grounded through plans", checked(), plans)
}

// TestConeProbesMatchAllOn runs every sweep cell with every context probe
// re-decided on its context with all SAT variables switched on, and requires
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

// TestOnlineMatchesOffline runs every sweep cell with every context probe
// re-decided on its context by the offline DPLL(T) loop — solve to a full
// model, check the theory, block, solve again from level 0 — and requires
// the same verdict: checking the theory inside the SAT search may change
// the search, never an answer. This is the `make test-differential`
// guarantee behind the online theory check.
func TestOnlineMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("offline-loop sweep skipped in -short mode (run via make test-differential)")
	}
	var log mismatchLog
	checked, remove := smt.CrossCheckOffline(log.fail)
	defer remove()
	for _, c := range sweepCells() {
		runCell(t, c)
		if bad, first := log.read(); bad > 0 {
			t.Fatalf("%s: %d context probes answer differently offline; first:\n%s", c.name, bad, first)
		}
	}
	if checked() == 0 {
		t.Fatal("sweep vacuous: no context probe checked")
	}
	t.Logf("%d context probes checked", checked())
}

// TestSearchSameAtAnyGOMAXPROCS runs every sweep cell at GOMAXPROCS 1 and
// then 4 and requires the same record from both: the engine's fan-outs may
// change how fast a search runs, never which candidates it repairs, how many
// steps it takes, or what it answers. This is the `make test-differential`
// guarantee behind repairing one candidate per fixpoint step.
func TestSearchSameAtAnyGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("GOMAXPROCS sweep skipped in -short mode (run via make test-differential)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range sweepCells() {
		runtime.GOMAXPROCS(1)
		_, one := runCell(t, c)
		runtime.GOMAXPROCS(4)
		_, four := runCell(t, c)
		if a, b := strings.Join(one, "\n"), strings.Join(four, "\n"); a != b {
			t.Errorf("%s differs with GOMAXPROCS:\n--- 1:\n%s\n--- 4:\n%s", c.name, a, b)
		}
	}
}
