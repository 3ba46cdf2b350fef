// Table and figure regeneration: one function per table/figure of the
// paper's evaluation (§7). Output is plain text with the same rows the
// paper reports; absolute times are this machine's, the shape is what is
// compared (see EXPERIMENTS.md).

package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/template"
)

func fmtDur(m Measurement) string {
	if m.Err != nil {
		return "timeout"
	}
	if !m.Proved {
		if m.Aborted {
			return "aborted"
		}
		if m.Truncated {
			return "fail*" // search truncated: gave up, not a definite negative
		}
		return "fail"
	}
	if m.Truncated {
		// Proved, but an exhaustive enumeration was clipped (precondition
		// tasks): the reported set may be incomplete.
		return fmt.Sprintf("%.2fs*", m.Duration.Seconds())
	}
	return fmt.Sprintf("%.2fs", m.Duration.Seconds())
}

// Table1 lists the ∀∃ preservation assertions proved (Table 1 of the paper).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: assertions proved for element preservation")
	fmt.Fprintln(w, "  Merge Sort (inner):")
	fmt.Fprintln(w, "    forall y exists x. 0 <= y < n => A[y] = C[x] && 0 <= x < t")
	fmt.Fprintln(w, "    forall y exists x. 0 <= y < m => B[y] = C[x] && 0 <= x < t")
	fmt.Fprintln(w, "  Other sorting:")
	fmt.Fprintln(w, "    forall y exists x. 0 <= y < n => A0[y] = A[x] && 0 <= x < n")
}

// Table2 runs the worst-case precondition inferences and prints the
// preconditions found (Table 2).
func Table2(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Table 2: preconditions for worst-case upper bounds")
	tasks := WorstCaseTasks()
	for ti, ms := range r.RunAll(tasks) {
		for _, m := range ms {
			fmt.Fprintf(w, "  %-22s [%s, %s]\n", tasks[ti].Name, m.Method, fmtDur(m))
			for _, pre := range m.Preconditions {
				fmt.Fprintf(w, "    pre: %s\n", pre)
			}
		}
	}
	fmt.Fprintln(w, "  Bubble Sort (n2)       precondition true (no assertion; same writes always)")
	fmt.Fprintln(w, "  Merge Sort (inner)     precondition true (no assertion; same writes always)")
}

// Table3 runs the functional-correctness precondition inferences (Table 3)
// and Table5 prints their times (Table 5); both come from the same runs.
func Table3And5(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Table 3: preconditions inferred for functional correctness")
	type row struct {
		name string
		m    Measurement
	}
	var rows []row
	tasks := FunctionalTasks()
	for ti, ms := range r.RunAll(tasks) {
		for _, m := range ms {
			rows = append(rows, row{name: tasks[ti].Name, m: m})
			fmt.Fprintf(w, "  %-16s\n", tasks[ti].Name)
			for _, pre := range m.Preconditions {
				fmt.Fprintf(w, "    pre: %s\n", pre)
			}
		}
	}
	fmt.Fprintln(w, "Table 5: time for functional-correctness preconditions (GFP)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %s\n", r.name, fmtDur(r.m))
	}
}

// Table4 times the data-sensitive array/list programs under all three
// algorithms (Table 4).
func Table4(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Table 4: time (secs) for data-sensitive array/list programs")
	fmt.Fprintf(w, "  %-20s %-10s %-10s %-10s\n", "Benchmark", "LFP", "GFP", "CFP")
	tasks := ArrayListTasks()
	for ti, ms := range r.RunAll(tasks) {
		times := map[core.Method]string{}
		for _, m := range ms {
			times[m.Method] = fmtDur(m)
		}
		fmt.Fprintf(w, "  %-20s %-10s %-10s %-10s\n",
			tasks[ti].Name, times[core.LFP], times[core.GFP], times[core.CFP])
	}
}

// Table6 times the sorting suite: sortedness and preservation under all
// three algorithms, plus the worst-case bound preconditions (Table 6).
func Table6(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Table 6: time (secs) for sorting programs")
	fmt.Fprintf(w, "  %-20s | %-8s %-8s %-8s | %-8s %-8s %-8s | %-8s\n",
		"Benchmark", "sort-LFP", "sort-GFP", "sort-CFP", "pres-LFP", "pres-GFP", "pres-CFP", "bound")
	// All three sub-suites fan out as one big cell pool so a parallel
	// runner never idles between suites; the rows print in suite order.
	worst, presTasks, sorts := WorstCaseTasks(), PreservationTasks(), SortednessTasks()
	all := append(append(append([]Task(nil), worst...), presTasks...), sorts...)
	res := r.RunAll(all)
	bounds := map[string]string{}
	for ti := range worst {
		for _, m := range res[ti] {
			bounds[worst[ti].Name] = fmtDur(m)
		}
	}
	bounds["Bubble Sort (n2)"] = "0.00"
	bounds["Merge Sort (inner)"] = "0.00"
	pres := map[string]map[core.Method]string{}
	for ti := range presTasks {
		pres[presTasks[ti].Name] = map[core.Method]string{}
		for _, m := range res[len(worst)+ti] {
			pres[presTasks[ti].Name][m.Method] = fmtDur(m)
		}
	}
	for ti := range sorts {
		sorted := map[core.Method]string{}
		for _, m := range res[len(worst)+len(presTasks)+ti] {
			sorted[m.Method] = fmtDur(m)
		}
		p := pres[sorts[ti].Name]
		fmt.Fprintf(w, "  %-20s | %-8s %-8s %-8s | %-8s %-8s %-8s | %-8s\n",
			sorts[ti].Name,
			sorted[core.LFP], sorted[core.GFP], sorted[core.CFP],
			p[core.LFP], p[core.GFP], p[core.CFP],
			bounds[sorts[ti].Name])
	}
}

// Table7 times the non-unit-coefficient (general-LIA) family and reports the
// Fourier–Motzkin counters per cell. This table is the reproduction's own —
// the paper's evaluation stays inside the difference fragment — and exists to
// keep the incremental elimination engine's behavior visible: fm-scratch
// should stay near zero while fm-incr carries the load, and dormant must
// stay zero.
func Table7(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Table 7: non-unit-coefficient (general-LIA) programs")
	fmt.Fprintf(w, "  %-16s %-5s %-8s %10s %10s %9s %8s\n",
		"Benchmark", "Alg", "time", "fm-scratch", "fm-incr", "cap-hits", "dormant")
	tasks := LIATasks()
	for ti, ms := range r.RunAll(tasks) {
		for _, m := range ms {
			c := &m.Counters
			fmt.Fprintf(w, "  %-16s %-5s %-8s %10.0f %10.0f %9.0f %8.0f\n",
				tasks[ti].Name, m.Method, fmtDur(m),
				c[stats.FMScratch], c[stats.FMIncremental], c[stats.FMCapHits], c[stats.DormantContexts])
		}
	}
}

// Figure4 prints the histogram of SMT query latencies accumulated in the
// runner's collector (Figure 4).
func Figure4(w io.Writer, c *stats.Collector) {
	fmt.Fprintln(w, "Figure 4: SMT query latency histogram")
	for i, n := range c.Queries().Buckets {
		fmt.Fprintf(w, "  %-8s %d\n", stats.QueryBucketLabels[i], n)
	}
}

// WithJunkPredicates wraps a problem builder, appending n irrelevant
// predicates to every unknown's vocabulary (the Figure 5 stressor).
func WithJunkPredicates(build func() *spec.Problem, n int) func() *spec.Problem {
	return func() *spec.Problem {
		p := build()
		junk := junkPreds(n)
		q := template.Domain{}
		for u, ps := range p.Q {
			q[u] = append(append([]logic.Formula(nil), ps...), junk...)
		}
		p.Q = q
		return p
	}
}

// junkPreds builds n syntactically distinct predicates over variables no
// benchmark program uses.
func junkPreds(n int) []logic.Formula {
	out := make([]logic.Formula, 0, n)
	for i := 0; i < n; i++ {
		a := logic.V(fmt.Sprintf("zz%c", 'a'+i%26))
		b := logic.V(fmt.Sprintf("zz%c", 'a'+(i/26+13)%26))
		out = append(out, logic.LeF(logic.Minus(a, b), logic.I(int64(i))))
	}
	return out
}

// Figure5 measures robustness to irrelevant predicates: the slowdown factor
// of each algorithm on a base task as junk predicates are added (Figure 5).
func Figure5(w io.Writer, r *Runner, base Task, counts []int) {
	fmt.Fprintln(w, "Figure 5: slowdown factor vs. number of irrelevant predicates")
	baseline := map[core.Method]time.Duration{}
	for _, m := range r.Run(base) {
		if m.Err == nil && m.Proved {
			baseline[m.Method] = m.Duration
		}
	}
	fmt.Fprintf(w, "  %-6s %-10s %-10s %-10s\n", "junk", "LFP", "GFP", "CFP")
	for _, n := range counts {
		t := base
		t.Build = WithJunkPredicates(base.Build, n)
		factors := map[core.Method]string{core.LFP: "-", core.GFP: "-", core.CFP: "-"}
		for _, m := range r.Run(t) {
			if m.Err != nil {
				factors[m.Method] = "timeout"
			} else if !m.Proved {
				factors[m.Method] = "fail"
			} else if b := baseline[m.Method]; b > 0 {
				factors[m.Method] = fmt.Sprintf("%.1fx", float64(m.Duration)/float64(b))
			}
		}
		fmt.Fprintf(w, "  %-6d %-10s %-10s %-10s\n", n, factors[core.LFP], factors[core.GFP], factors[core.CFP])
	}
}

// Figure6 prints the sizes of OptimalNegativeSolutions solutions (Figure 6).
func Figure6(w io.Writer, c *stats.Collector) {
	fmt.Fprintln(w, "Figure 6: predicates per OptimalNegativeSolutions solution")
	sizes := c.NegSolutionSizes()
	hist := sizes.Cuts([]int{0, 1, 2, 3, 4})
	for _, label := range []string{"<=0", "<=1", "<=2", "<=3", "<=4", ">4"} {
		if hist[label] > 0 {
			fmt.Fprintf(w, "  %-4s %d\n", label, hist[label])
		}
	}
}

// Figure7 prints how many solutions OptimalSolutions calls return (Figure 7).
func Figure7(w io.Writer, c *stats.Collector) {
	fmt.Fprintln(w, "Figure 7: solutions per OptimalSolutions call")
	counts := c.OptSolutionCounts()
	hist := counts.Cuts([]int{0, 1, 2, 3, 4, 5, 6})
	for _, label := range []string{"<=0", "<=1", "<=2", "<=3", "<=4", "<=5", "<=6", ">6"} {
		if hist[label] > 0 {
			fmt.Fprintf(w, "  %-4s %d\n", label, hist[label])
		}
	}
}

// Figure8 summarizes the iterative candidate-set sizes (Figure 8).
func Figure8(w io.Writer, c *stats.Collector) {
	fmt.Fprintln(w, "Figure 8: iterative candidate-set sizes per step")
	sizes := c.Candidates()
	fmt.Fprintf(w, "  steps observed: %d, median candidates: %d, max: %d\n",
		sizes.Count, sizes.Median(), sizes.Max)
	hist := sizes.Cuts([]int{1, 2, 4, 8, 16, 32})
	for _, label := range []string{"<=1", "<=2", "<=4", "<=8", "<=16", "<=32", ">32"} {
		if hist[label] > 0 {
			fmt.Fprintf(w, "  %-5s %d\n", label, hist[label])
		}
	}
}

// Figure9 summarizes the CFP SAT instance sizes (Figure 9).
func Figure9(w io.Writer, c *stats.Collector) {
	fmt.Fprintln(w, "Figure 9: CFP SAT formula sizes")
	clauses, vars := c.SATSizes()
	fmt.Fprintf(w, "  instances: %d, median clauses: %d, max clauses: %d, median vars: %d\n",
		clauses.Count, clauses.Median(), clauses.Max, vars.Median())
}
