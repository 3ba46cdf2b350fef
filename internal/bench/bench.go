// Package bench defines the paper's benchmark suite (§7): the programs,
// their invariant templates and predicate vocabularies, and a harness that
// regenerates every table and figure of the evaluation. Each Task is one
// (program, property) pair; tables group tasks.
package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/par"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Kind distinguishes verification from precondition-inference tasks.
type Kind int

// Task kinds.
const (
	// Verify discovers loop invariants proving the program's assertions.
	Verify Kind = iota
	// Precondition infers maximally-weak entry conditions (§6).
	Precondition
)

// Task is one benchmark instance.
type Task struct {
	// Name identifies the benchmark ("Selection Sort", ...).
	Name string
	// Property labels the property class ("sortedness", "preservation",
	// "upper-bound", "array/list", "functional").
	Property string
	// Kind selects verification or precondition inference.
	Kind Kind
	// Build constructs a fresh problem instance (problems are stateful:
	// they cache paths).
	Build func() *spec.Problem
	// Methods lists the algorithms to run (default: all three for Verify,
	// GFP for Precondition, matching the paper's tables).
	Methods []core.Method
	// ExpectPre, for Precondition tasks, holds substrings of preconditions
	// that should be among the inferred maximally-weak set (checked
	// semantically by the tests, informally here for reporting).
	ExpectPre []logic.Formula
}

// methods returns the algorithms to run for this task.
func (t Task) methods() []core.Method {
	if len(t.Methods) > 0 {
		return t.Methods
	}
	if t.Kind == Precondition {
		return []core.Method{core.GFP}
	}
	return core.Methods
}

// DefaultSuite returns the fast representative benchmark subset (the same
// tasks the always-on search tests run): one sortedness, one preservation,
// two functional-correctness preconditions, one worst-case bound, the two
// fast list tasks, and two general-LIA invariants. It is the pinned suite
// behind the vs3perf engine workloads and TestWarmBench, sized to finish in
// minutes rather than the tens of minutes the full Table 6 sweep takes.
func DefaultSuite() []Task {
	return []Task{
		SortednessTasks()[4],   // quick sort (inner)
		PreservationTasks()[4], // insertion sort
		FunctionalTasks()[0],   // partial init precondition
		FunctionalTasks()[1],   // init synthesis precondition
		WorstCaseTasks()[2],    // quick sort (inner) bound
		ArrayListTasks()[3],    // list delete
		ArrayListTasks()[4],    // list insert
		LIATasks()[0],          // scaled init (general-LIA invariant)
		LIATasks()[1],          // double stride (general-LIA invariant)
	}
}

// Measurement is one (task, method) timing.
type Measurement struct {
	Task     string
	Property string
	Method   core.Method
	Proved   bool
	Duration time.Duration
	// Counters reads the run's engine counters (the stats registry's Engine
	// rows; each cell uses a fresh solver, so they are per-cell, not
	// cumulative). Store rows stay zero unless Config.Knowledge is attached.
	Counters stats.Values
	// Preconditions holds the inferred formulas for Precondition tasks.
	Preconditions []logic.Formula
	// Truncated reports that the cell's search space was clipped (candidate
	// cap, step bound, or SAT model bound hit): a !Proved cell with
	// Truncated set is "gave up", not a definite negative.
	Truncated bool
	// Aborted reports that the run was cancelled by the cell timeout's Stop
	// flag before completing.
	Aborted bool
	// Err records a failure to run (distinct from "no invariant found").
	Err error
}

// Runner executes tasks with a shared configuration.
type Runner struct {
	// Timeout bounds each (task, method) run; 0 means none.
	Timeout time.Duration
	// Stats receives Figure 4–9 measurements across all runs.
	Stats *stats.Collector
	// Config is the base verifier configuration (Stats is attached
	// automatically).
	Config core.Config
	// Parallel is the number of (task, method) cells executed concurrently
	// (0 or 1 = sequential, matching the pre-parallel runner). Each cell is
	// a fresh Verifier with a cold SMT cache either way, and results are
	// returned in task/method order regardless of scheduling.
	Parallel int

	// cellNanos accumulates the summed wall-clock of every cell run, for
	// reporting parallel speedup (sum of cell times / elapsed wall-clock).
	cellNanos atomic.Int64
}

func (r *Runner) parallel() int {
	if r.Parallel < 1 {
		return 1
	}
	return r.Parallel
}

// CellTime returns the summed wall-clock of every (task, method) cell run
// so far. Dividing it by the elapsed wall-clock of a parallel session gives
// the achieved speedup over a sequential run of the same cells.
func (r *Runner) CellTime() time.Duration {
	return time.Duration(r.cellNanos.Load())
}

// Run executes one task with each of its methods, returning one measurement
// per method. A fresh Verifier (hence a cold SMT cache) is used per run so
// timings are comparable; with Parallel > 1 the methods run concurrently.
func (r *Runner) Run(t Task) []Measurement {
	ms := t.methods()
	out := make([]Measurement, len(ms))
	par.ForEach(len(ms), r.parallel(), func(i int) {
		out[i] = r.runOne(t, ms[i])
	})
	return out
}

// RunAll executes every (task, method) cell of a task list, fanning the
// cells — not just the methods of one task — across the runner's worker
// budget. Results are indexed by task in input order, each holding one
// measurement per method in reporting order.
func (r *Runner) RunAll(tasks []Task) [][]Measurement {
	type cell struct{ task, method int }
	var cells []cell
	out := make([][]Measurement, len(tasks))
	for ti, t := range tasks {
		out[ti] = make([]Measurement, len(t.methods()))
		for mi := range t.methods() {
			cells = append(cells, cell{task: ti, method: mi})
		}
	}
	par.ForEach(len(cells), r.parallel(), func(i int) {
		c := cells[i]
		out[c.task][c.method] = r.runOne(tasks[c.task], tasks[c.task].methods()[c.method])
	})
	return out
}

func (r *Runner) runOne(t Task, m core.Method) Measurement {
	cfg := r.Config
	cfg.Stats = r.Stats
	// A cooperative stop flag lets a timed-out run release the CPU instead
	// of skewing subsequent measurements.
	var stopped atomic.Bool
	stop := func() bool { return stopped.Load() }
	cfg.Fixpoint.Stop = stop
	cfg.CBI.Stop = stop
	v := core.New(cfg)

	type result struct {
		meas Measurement
	}
	done := make(chan result, 1)
	go func() {
		// Build the measurement locally: sharing a variable with the timeout
		// branch below would race when the timeout fires before this
		// goroutine is scheduled.
		mm := Measurement{Task: t.Name, Property: t.Property, Method: m}
		start := time.Now()
		p := t.Build()
		switch t.Kind {
		case Verify:
			o, err := v.Verify(p, m)
			mm.Err = err
			mm.Proved = o.Proved
			mm.Truncated, mm.Aborted = o.Truncated, o.Aborted
		case Precondition:
			pres, enum, err := v.InferPreconditions(p)
			mm.Err = err
			mm.Proved = len(pres) > 0
			mm.Truncated, mm.Aborted = enum.Truncated, enum.Aborted
			for _, pre := range pres {
				mm.Preconditions = append(mm.Preconditions, pre.Pre)
			}
		}
		mm.Duration = time.Since(start)
		mm.Counters = v.Engine().S.Counters().Load()
		done <- result{meas: mm}
	}()
	if r.Timeout <= 0 {
		res := (<-done).meas
		r.cellNanos.Add(int64(res.Duration))
		return res
	}
	select {
	case res := <-done:
		r.cellNanos.Add(int64(res.meas.Duration))
		return res.meas
	case <-time.After(r.Timeout):
		stopped.Store(true)
		meas := Measurement{
			Task: t.Name, Property: t.Property, Method: m,
			Err:      fmt.Errorf("timeout after %v", r.Timeout),
			Duration: r.Timeout,
		}
		r.cellNanos.Add(int64(meas.Duration))
		return meas
	}
}

// helpers shared by the benchmark definitions.

func unk(name string) logic.Formula { return logic.Unknown{Name: name} }

func v(name string) logic.Term { return logic.V(name) }

func sel(arr, idx string) logic.Term { return logic.Sel(logic.AV(arr), logic.V(idx)) }

// forallImp builds ∀vars: guard ⇒ body.
func forallImp(vars []string, guard, body logic.Formula) logic.Formula {
	return logic.All(vars, logic.Imp(guard, body))
}
