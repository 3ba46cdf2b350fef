// Command benchtab regenerates the tables and figures of the paper's
// evaluation section (§7) against this reproduction.
//
// Usage:
//
//	benchtab [-table 1|2|3|4|5|6|7|8|9|10] [-figure 4|5|6|7|8|9] [-timeout 120s] [-all] [-parallel N]
//	         [-json FILE] [-compare OLD.json] [-cpuprofile FILE] [-memprofile FILE] [-quick]
//
// With -parallel N > 1 the (task, method) cells of each table run
// concurrently on N workers (default: the number of CPUs); the printed
// tables are identical to a sequential run, and a trailing line reports the
// achieved wall-clock speedup (sum of per-cell times / elapsed).
//
// -json FILE runs the default representative suite and writes a
// machine-readable report (wall time plus per-cell timings and SMT
// query/cache-hit counters) to FILE — the BENCH_N.json format tracked by
// `make bench-json`. -compare OLD.json runs the same suite and prints a
// per-cell speedup table against a previous report instead of (or in
// addition to) writing one. -cpuprofile/-memprofile write runtime/pprof
// profiles covering whatever work the other flags request.
//
// Figures 4 and 6–9 are histograms over the statistics collected while the
// requested tables run; asking for them alone runs the Table 4 suite to
// populate the collector. Figure 5 runs the robustness sweep (slow).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/stats"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-10; 7 is the general-LIA family, 8 the warm-restart comparison, 9 the rpc transport report, 10 the compaction and store-aware routing report)")
	figure := flag.Int("figure", 0, "regenerate one figure (4-9)")
	timeout := flag.Duration("timeout", 120*time.Second, "per-(task,method) timeout")
	all := flag.Bool("all", false, "regenerate every table and figure")
	junk := flag.String("junk", "10,20,30", "comma-separated junk-predicate counts for figure 5")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of (task,method) cells run concurrently (1 = sequential)")
	jsonOut := flag.String("json", "", "run the default suite and write a JSON report (BENCH_N.json format) to this file")
	compare := flag.String("compare", "", "run the default suite and print a per-cell speedup table against this previous -json report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	quick := flag.Bool("quick", false, "run the one-task quick suite (one cell per method) and print its report")
	flag.Parse()

	// The searches churn short-lived formulas and candidate fills; at the
	// default GOGC=100 a benchmark run spends roughly a quarter of its wall
	// time collecting them. A batch harness trades heap headroom for
	// throughput, so collect 8x less eagerly — unless the caller pinned GOGC
	// in the environment, which always wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(800)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			}
		}()
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

	if *quick {
		if err := bench.RunJSON(w, r, "quick", bench.QuickSuite()); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" || *compare != "" {
		var old *bench.Report
		if *compare != "" {
			var err error
			old, err = bench.ReadReport(*compare)
			if errors.Is(err, os.ErrNotExist) {
				// A missing baseline is the normal first-run state, not a
				// failure: run the suite anyway and say how to record one.
				fmt.Fprintf(os.Stderr, "benchtab: no baseline at %s — nothing to compare against yet\n", *compare)
				fmt.Fprintf(os.Stderr, "benchtab: record one with `benchtab -json %s` (or `make bench-json`), then rerun -compare\n", *compare)
				old = nil
			} else if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
		}
		// With no baseline and no -json sink the suite run would print
		// nothing useful, so skip it.
		runSuite := *jsonOut != "" || old != nil
		if runSuite {
			var buf bytes.Buffer
			if err := bench.RunJSON(&buf, r, "default", bench.DefaultSuite()); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				if err := os.WriteFile(*jsonOut, buf.Bytes(), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
					os.Exit(1)
				}
				fmt.Fprintf(w, "wrote %s\n", *jsonOut)
			}
			if old != nil {
				var new bench.Report
				if err := json.Unmarshal(buf.Bytes(), &new); err != nil {
					fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
					os.Exit(1)
				}
				bench.WriteComparison(w, old, &new)
			}
		}
		if *table == 0 && *figure == 0 && !*all {
			return
		}
	}

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
		fmt.Fprintln(os.Stderr, "benchtab: pass -table N, -figure N, -json FILE, or -all")
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
	case 8:
		// Warm-restart comparison: the default suite cold on a fresh
		// knowledge store, then again reopening it. The store lives in a
		// throwaway directory — Table 8 measures the restart saving, not a
		// particular store's contents.
		dir, err := os.MkdirTemp("", "vs3-warm-bench-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		rep, err := bench.RunWarmBench(dir, "default", r.Timeout, r.Parallel, bench.DefaultSuite())
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		bench.WriteWarmTable(w, rep)
	case 9:
		// Binary rpc transport comparison: rendered from the committed
		// BENCH_9.json rather than re-run — the measurement needs a live
		// multi-daemon fleet, which `make bench-rpc` boots and gates.
		rep, err := bench.ReadBench9("BENCH_9.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v (generate it with `make bench-rpc`)\n", err)
			os.Exit(1)
		}
		bench.WriteBench9Table(w, rep)
	case 10:
		// Log compaction + store-aware routing: rendered from the committed
		// BENCH_10.json (`make bench-compact` boots the fleet and gates it).
		rep, err := bench.ReadBench10("BENCH_10.json")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v (generate it with `make bench-compact`)\n", err)
			os.Exit(1)
		}
		bench.WriteBench10Table(w, rep)
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
