// Command benchtab regenerates the tables and figures of the paper's
// evaluation section (§7) against this reproduction.
//
// Usage:
//
//	benchtab [-table 1|2|3|4|5|6|7] [-figure 4|5|6|7|8|9] [-timeout 120s] [-all] [-parallel N]
//
// With -parallel N > 1 the (task, method) cells of each table run
// concurrently on N workers (default: the number of CPUs); the printed
// tables are identical to a sequential run, and a trailing line reports the
// achieved wall-clock speedup (sum of per-cell times / elapsed).
//
// benchtab renders the paper's evaluation only; the layered end-to-end
// benchmark of this implementation is vs3perf (`bash vs3perf/run.sh`),
// which also writes CPU and heap profiles under `--trace 1`.
//
// Figures 4 and 6–9 are histograms over the statistics collected while the
// requested tables run; asking for them alone runs the Table 4 suite to
// populate the collector. Figure 5 runs the robustness sweep (slow).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/bench"
	"repro/internal/stats"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-7; 7 is the general-LIA family)")
	figure := flag.Int("figure", 0, "regenerate one figure (4-9)")
	timeout := flag.Duration("timeout", 120*time.Second, "per-(task,method) timeout")
	all := flag.Bool("all", false, "regenerate every table and figure")
	junk := flag.String("junk", "10,20,30", "comma-separated junk-predicate counts for figure 5")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of (task,method) cells run concurrently (1 = sequential)")
	flag.Parse()

	// The searches churn short-lived formulas and candidate fills; at the
	// default GOGC=100 a benchmark run spends roughly a quarter of its wall
	// time collecting them. A batch harness trades heap headroom for
	// throughput, so collect 8x less eagerly — unless the caller pinned GOGC
	// in the environment, which always wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}

	c := stats.New()
	r := &bench.Runner{Timeout: *timeout, Stats: c, Parallel: *parallel}
	w := os.Stdout
	start := time.Now()
	defer func() {
		if cell := r.CellTime(); cell > 0 {
			wall := time.Since(start)
			fmt.Fprintf(w, "parallel=%d: cell time %.1fs, wall %.1fs, speedup %.2fx\n",
				*parallel, cell.Seconds(), wall.Seconds(), cell.Seconds()/wall.Seconds())
		}
	}()

	if *all {
		runTable(w, r, 1)
		runTable(w, r, 2)
		runTable(w, r, 3)
		runTable(w, r, 4)
		runTable(w, r, 6)
		runTable(w, r, 7)
		bench.Figure4(w, c)
		runFigure(w, r, c, 5, *junk)
		bench.Figure6(w, c)
		bench.Figure7(w, c)
		bench.Figure8(w, c)
		bench.Figure9(w, c)
		return
	}
	if *table != 0 {
		runTable(w, r, *table)
	}
	if *figure != 0 {
		if *figure != 5 && c.Queries().Count == 0 {
			// Populate the collector with a representative run.
			bench.Table4(io.Discard, r)
		}
		runFigure(w, r, c, *figure, *junk)
	}
	if *table == 0 && *figure == 0 {
		fmt.Fprintln(os.Stderr, "benchtab: pass -table N, -figure N, or -all")
		os.Exit(2)
	}
}

func runTable(w io.Writer, r *bench.Runner, n int) {
	switch n {
	case 1:
		bench.Table1(w)
	case 2:
		bench.Table2(w, r)
	case 3, 5:
		bench.Table3And5(w, r)
	case 4:
		bench.Table4(w, r)
	case 6:
		bench.Table6(w, r)
	case 7:
		bench.Table7(w, r)
	default:
		fmt.Fprintf(os.Stderr, "benchtab: no table %d\n", n)
		os.Exit(2)
	}
}

func runFigure(w io.Writer, r *bench.Runner, c *stats.Collector, n int, junk string) {
	switch n {
	case 4:
		bench.Figure4(w, c)
	case 5:
		var counts []int
		for _, part := range splitComma(junk) {
			var v int
			fmt.Sscanf(part, "%d", &v)
			if v > 0 {
				counts = append(counts, v)
			}
		}
		bench.Figure5(w, r, bench.SortednessTasks()[4], counts) // quick sort inner: fastest base
	case 6:
		bench.Figure6(w, c)
	case 7:
		bench.Figure7(w, c)
	case 8:
		bench.Figure8(w, c)
	case 9:
		bench.Figure9(w, c)
	default:
		fmt.Fprintf(os.Stderr, "benchtab: no figure %d\n", n)
		os.Exit(2)
	}
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(out, cur)
}
