package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/smt"
	"repro/internal/stats"
)

// Known inductive invariants for the scaled family, checked semantically so a
// search regression is distinguishable from a wrong benchmark definition.

func TestScaledInitKnownInvariant(t *testing.T) {
	checkKnown(t, ScaledInit(), knownSolution(map[string][]string{
		"v0": {"j <= 2*i", "j >= 2*i"},
		"v1": {"0 <= k", "k < i"},
	}))
}

func TestDoubleStrideKnownInvariant(t *testing.T) {
	checkKnown(t, DoubleStride(), knownSolution(map[string][]string{
		"v0": {"j <= 2*i", "j >= 2*i", "i <= n"},
	}))
}

func TestHalfBoundKnownInvariant(t *testing.T) {
	checkKnown(t, HalfBound(), knownSolution(map[string][]string{
		"v0": {"n >= 2*i - 1"},
	}))
}

// TestLIANoDormancy is the dormancy regression for the tentpole: solving the
// non-unit-coefficient family must keep every persistent context live (the
// general-LIA checker handles what used to trigger dormancy) and must route
// theory checks through it.
func TestLIANoDormancy(t *testing.T) {
	for _, task := range LIATasks() {
		v := core.New(core.Config{})
		o, err := v.Verify(task.Build(), core.LFP)
		if err != nil {
			t.Fatalf("%s: %v", task.Name, err)
		}
		if !o.Proved {
			t.Errorf("%s: not proved", task.Name)
		}
		s := v.Engine().S
		if s.NumContexts() == 0 {
			t.Errorf("%s: no persistent context created", task.Name)
		}
		if n := s.Counters()[stats.DormantContexts].Load(); n != 0 {
			t.Errorf("%s: %d contexts went dormant; want 0", task.Name, n)
		}
		if s.NumFMIncremental() == 0 {
			t.Errorf("%s: no theory check went through the persistent general-LIA checker", task.Name)
		}
	}
}

// runCells runs every (task, method) cell of tasks on r and returns the
// measurements flattened in task/method order, failing the test on any cell
// that did not run to completion.
func runCells(t *testing.T, r *Runner, tasks []Task) []Measurement {
	t.Helper()
	var cells []Measurement
	for _, ms := range r.RunAll(tasks) {
		for _, m := range ms {
			if m.Err != nil {
				t.Fatalf("%s/%s: %v", m.Task, m.Method, m.Err)
			}
			cells = append(cells, m)
		}
	}
	return cells
}

// sumCells adds up, over a run's cells, the wall-clock and the counters the
// benchmark gates read.
func sumCells(cells []Measurement) Measurement {
	var s Measurement
	for _, m := range cells {
		s.Duration += m.Duration
		s.Counters.Add(&m.Counters)
	}
	return s
}

// runLIAArm runs the general-LIA family under cfg and returns its cells.
func runLIAArm(t *testing.T, cfg core.Config) []Measurement {
	t.Helper()
	return runCells(t, &Runner{Config: cfg, Stats: stats.New(), Timeout: 2 * time.Minute}, LIATasks())
}

// TestLIABench is `make bench-lia`: cold (NoIncremental, every general-LIA
// theory check a from-scratch elimination) versus incremental (persistent
// LinChecker per context) on the scaled family, with identical verdicts per
// cell and a ≥3x reduction in from-scratch eliminations.
func TestLIABench(t *testing.T) {
	if testing.Short() {
		t.Skip("LIA benchmark is not a -short test")
	}
	inc := runLIAArm(t, core.Config{})
	cold := runLIAArm(t, core.Config{SMT: smt.Options{NoIncremental: true}})

	if len(inc) != len(cold) {
		t.Fatalf("arm cell counts differ: %d vs %d", len(inc), len(cold))
	}
	for i := range inc {
		a, b := inc[i], cold[i]
		if a.Task != b.Task || a.Method != b.Method {
			t.Fatalf("cell %d mismatch: %s/%s vs %s/%s", i, a.Task, a.Method, b.Task, b.Method)
		}
		if a.Proved != b.Proved {
			t.Errorf("%s/%s: incremental proved=%v, from-scratch proved=%v", a.Task, a.Method, a.Proved, b.Proved)
		}
		if !a.Proved {
			t.Errorf("%s/%s: not proved", a.Task, a.Method)
		}
	}
	is, cs := sumCells(inc), sumCells(cold)
	ic, cc := &is.Counters, &cs.Counters
	if ic[stats.DormantContexts] != 0 {
		t.Errorf("incremental arm sent %.0f contexts dormant; want 0", ic[stats.DormantContexts])
	}
	t.Logf("incremental: fm_scratch=%.0f fm_incremental=%.0f cells=%.2fs",
		ic[stats.FMScratch], ic[stats.FMIncremental], is.Duration.Seconds())
	t.Logf("from-scratch: fm_scratch=%.0f cells=%.2fs", cc[stats.FMScratch], cs.Duration.Seconds())
	if ic[stats.FMScratch]*3 > cc[stats.FMScratch] {
		t.Errorf("from-scratch eliminations not reduced >=3x: incremental %.0f vs cold %.0f",
			ic[stats.FMScratch], cc[stats.FMScratch])
	}
	if is.Duration >= cs.Duration {
		t.Logf("warning: incremental cell time %.2fs not below from-scratch %.2fs on this run",
			is.Duration.Seconds(), cs.Duration.Seconds())
	}
}
