// Sorting: verify sortedness and element preservation (the ∀∃ property) of
// the quicksort partitioning step and the full bubble sort — the workloads
// the paper's introduction motivates.
//
// Run with: go run ./examples/sorting
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/spec"
)

func main() {
	jobs := []struct {
		name    string
		build   func() *spec.Problem
		methods []core.Method // the algorithms that converge quickly here
	}{
		{"Quick Sort (inner), sortedness", bench.QuickSortInnerSorted, []core.Method{core.LFP}},
		{"Quick Sort (inner), preservation", bench.QuickSortInnerPreserves, []core.Method{core.LFP, core.CFP}},
		{"Bubble Sort (flag), sortedness", bench.BubbleSortFlagSorted, []core.Method{core.GFP}},
		{"Bubble Sort (flag), preservation", bench.BubbleSortFlagPreserves, core.Methods},
	}
	for _, job := range jobs {
		fmt.Printf("== %s ==\n", job.name)
		v := core.New(core.Config{})
		for _, m := range job.methods {
			start := time.Now()
			out, err := v.Verify(job.build(), m)
			if err != nil {
				log.Fatal(err)
			}
			status := "no invariant found"
			if out.Proved {
				status = "proved"
			}
			fmt.Printf("  %s: %s in %v\n", m, status, time.Since(start).Round(time.Millisecond))
			if out.Proved {
				// Sorted by cut point, so two runs differ only in their timings.
				cuts := make([]string, 0, len(out.Invariants))
				for cut := range out.Invariants {
					cuts = append(cuts, cut)
				}
				sort.Strings(cuts)
				for _, cut := range cuts {
					fmt.Printf("    %s: %s\n", cut, out.Invariants[cut])
				}
			}
		}
	}
}
