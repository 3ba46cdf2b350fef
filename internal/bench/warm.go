package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/store"
)

// WarmArm is one lifetime of the warm-restart benchmark: a full suite run
// against one on-disk knowledge store. The cold arm opens the store on an
// empty directory (first lifetime: everything computed from scratch, written
// behind); the warm arm reopens the same directory (restart: verdicts,
// lemmas, and cores load from disk).
type WarmArm struct {
	WallSeconds float64 `json:"wall_seconds"`
	CellSeconds float64 `json:"cell_seconds"`
	// Summed per-cell counters. Queries + FMScratch + FMIncremental is the
	// gated "from-scratch work" metric (see WarmArm.Work).
	Queries          int64 `json:"queries"`
	CacheHits        int64 `json:"cache_hits"`
	AssumptionProbes int64 `json:"assumption_probes"`
	FMScratch        int64 `json:"fm_scratch"`
	FMIncremental    int64 `json:"fm_incremental"`
	StoreHits        int64 `json:"store_hits"`
	WarmLemmas       int64 `json:"warm_lemmas"`
	WarmCores        int64 `json:"warm_cores"`
	SearchHits       int64 `json:"search_hits"`
	SearchRejects    int64 `json:"search_rejects"`
	// Store health for the lifetime: whether it started cold and how many
	// records it loaded (LoadedSearches of them group-search results).
	ColdStart      bool         `json:"cold_start"`
	LoadedRecords  int64        `json:"loaded_records"`
	LoadedSearches int64        `json:"loaded_searches"`
	Cells          []CellReport `json:"cells"`
}

// Work returns the arm's from-scratch solving work: SMT validity queries
// plus Fourier–Motzkin eliminations (from-scratch and incremental runs).
// This is the quantity the warm-restart acceptance gate compares.
func (a WarmArm) Work() int64 { return a.Queries + a.FMScratch + a.FMIncremental }

// WarmReport is the BENCH_8.json schema: a cold lifetime versus a warm
// restart on the same knowledge store.
type WarmReport struct {
	Report   string  `json:"report"`
	Purpose  string  `json:"purpose"`
	Host     string  `json:"host"`
	GoMaxP   int     `json:"gomaxprocs"`
	Suite    string  `json:"suite"`
	Parallel int     `json:"parallel"`
	Cold     WarmArm `json:"cold"`
	Warm     WarmArm `json:"warm"`
	Findings struct {
		ColdWork          int64   `json:"cold_work"`
		WarmWork          int64   `json:"warm_work"`
		WorkRatio         float64 `json:"cold_over_warm_work"`
		VerdictsIdentical bool    `json:"verdicts_identical"`
		WarmStoreHits     int64   `json:"warm_store_hits"`
		WarmLemmas        int64   `json:"warm_lemmas"`
		WarmCores         int64   `json:"warm_cores"`
	} `json:"findings"`
	Notes []string `json:"notes"`
}

// runWarmArm opens the knowledge store in dir, runs the tasks against it,
// and closes the store (flushing the write-behind queue, as a drained daemon
// would). Every cell is a fresh Verifier sharing the one store — the serving
// pool's shape.
func runWarmArm(dir string, timeout time.Duration, parallel int, tasks []Task) (WarmArm, error) {
	cfg := core.Config{}
	st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams()})
	if err != nil {
		return WarmArm{}, err
	}
	cfg.Knowledge = st
	r := &Runner{Timeout: timeout, Stats: stats.New(), Config: cfg, Parallel: parallel}
	start := time.Now()
	results := r.RunAll(tasks)
	arm := WarmArm{
		WallSeconds: time.Since(start).Seconds(),
		CellSeconds: r.CellTime().Seconds(),
	}
	for _, ms := range results {
		for _, m := range ms {
			cell := CellReport{
				Task: m.Task, Property: m.Property, Method: m.Method.String(),
				Proved: m.Proved, Seconds: m.Duration.Seconds(),
				Queries: m.Queries, CacheHits: m.CacheHits,
				Contexts: m.Contexts, AssumptionProbes: m.AssumptionProbes,
				FMScratch: m.FMScratch, FMIncremental: m.FMIncremental,
				FMCubeHits: m.FMCubeHits, FMCapHits: m.FMCapHits,
				StoreHits: m.StoreHits, WarmLemmas: m.WarmLemmas, WarmCores: m.WarmCores,
				SearchHits: m.SearchHits, SearchRejects: m.SearchRejects,
				Truncated: m.Truncated, Aborted: m.Aborted,
			}
			if m.Err != nil {
				cell.Err = m.Err.Error()
			}
			arm.Queries += m.Queries
			arm.CacheHits += m.CacheHits
			arm.AssumptionProbes += m.AssumptionProbes
			arm.FMScratch += m.FMScratch
			arm.FMIncremental += m.FMIncremental
			arm.StoreHits += m.StoreHits
			arm.WarmLemmas += m.WarmLemmas
			arm.WarmCores += m.WarmCores
			arm.SearchHits += m.SearchHits
			arm.SearchRejects += m.SearchRejects
			arm.Cells = append(arm.Cells, cell)
		}
	}
	ss := st.Stats()
	arm.ColdStart = ss.ColdStart
	arm.LoadedRecords = ss.LoadedLemmas + ss.LoadedCores + ss.LoadedVerdicts + ss.LoadedConsistency + ss.LoadedOutcomes + ss.LoadedSearches
	arm.LoadedSearches = ss.LoadedSearches
	if err := st.Close(); err != nil {
		return arm, err
	}
	return arm, nil
}

// RunWarmBench runs the warm-restart benchmark: the suite once against a
// fresh store in dir (cold lifetime), then once more reopening the same
// store (warm restart). dir must be empty or nonexistent.
func RunWarmBench(dir, suite string, timeout time.Duration, parallel int, tasks []Task) (*WarmReport, error) {
	cold, err := runWarmArm(dir, timeout, parallel, tasks)
	if err != nil {
		return nil, fmt.Errorf("cold arm: %w", err)
	}
	warm, err := runWarmArm(dir, timeout, parallel, tasks)
	if err != nil {
		return nil, fmt.Errorf("warm arm: %w", err)
	}
	rep := &WarmReport{
		Report:   "BENCH_8",
		Purpose:  "warm-start persistence: restarting on an on-disk knowledge store vs a cold first lifetime, same suite, same solver bounds",
		Host:     runtime.GOOS + "/" + runtime.GOARCH,
		GoMaxP:   runtime.GOMAXPROCS(0),
		Suite:    suite,
		Parallel: parallel,
		Cold:     cold,
		Warm:     warm,
	}
	rep.Findings.ColdWork = cold.Work()
	rep.Findings.WarmWork = warm.Work()
	if w := warm.Work(); w > 0 {
		rep.Findings.WorkRatio = float64(cold.Work()) / float64(w)
	}
	rep.Findings.VerdictsIdentical = warmVerdictsIdentical(rep)
	rep.Findings.WarmStoreHits = warm.StoreHits
	rep.Findings.WarmLemmas = warm.WarmLemmas
	rep.Findings.WarmCores = warm.WarmCores
	rep.Notes = []string{
		"cold = first lifetime on an empty store (computes everything, writes behind); warm = restart on the same directory (verdicts, lemmas, cores and group-search results load from disk; a replayed search result is re-probed before use)",
		"work = smt queries + fourier-motzkin eliminations (fm_scratch + fm_incremental); cold_over_warm_work is the restart saving",
		"each cell is a fresh Verifier attached to the lifetime's shared store, the serving pool's shape; verdicts compared cell-by-cell across lifetimes",
	}
	return rep, nil
}

// warmVerdictsIdentical reports whether every (task, method) cell proved the
// same thing in both arms.
func warmVerdictsIdentical(rep *WarmReport) bool {
	if len(rep.Cold.Cells) != len(rep.Warm.Cells) {
		return false
	}
	for i := range rep.Cold.Cells {
		c, w := rep.Cold.Cells[i], rep.Warm.Cells[i]
		if c.Task != w.Task || c.Method != w.Method || c.Proved != w.Proved {
			return false
		}
	}
	return true
}

// WriteWarmTable renders a WarmReport as the Table 8 text table: one row per
// cell with cold/warm wall time and from-scratch work side by side.
func WriteWarmTable(w io.Writer, rep *WarmReport) {
	fmt.Fprintf(w, "Table 8: warm-start persistence (suite %s, parallel %d)\n", rep.Suite, rep.Parallel)
	fmt.Fprintf(w, "%-22s %-14s %-6s %9s %9s %10s %10s %10s %s\n",
		"task", "property", "method", "cold s", "warm s", "cold work", "warm work", "store hits", "verdict")
	for i := range rep.Cold.Cells {
		c := rep.Cold.Cells[i]
		if i >= len(rep.Warm.Cells) {
			break
		}
		wc := rep.Warm.Cells[i]
		verdict := "same"
		if c.Proved != wc.Proved {
			verdict = fmt.Sprintf("CHANGED %v->%v", c.Proved, wc.Proved)
		}
		fmt.Fprintf(w, "%-22s %-14s %-6s %9.3f %9.3f %10d %10d %10d %s\n",
			c.Task, c.Property, c.Method, c.Seconds, wc.Seconds,
			c.Queries+c.FMScratch+c.FMIncremental, wc.Queries+wc.FMScratch+wc.FMIncremental,
			wc.StoreHits, verdict)
	}
	fmt.Fprintf(w, "\ntotals: work %d -> %d", rep.Findings.ColdWork, rep.Findings.WarmWork)
	if rep.Findings.WorkRatio > 0 {
		fmt.Fprintf(w, " (%.1fx less)", rep.Findings.WorkRatio)
	} else if rep.Findings.WarmWork == 0 && rep.Findings.ColdWork > 0 {
		fmt.Fprintf(w, " (all answered from the store)")
	}
	fmt.Fprintf(w, "; warm lifetime: %d store hits, %d seeded lemmas, %d promoted cores, %d replayed searches (%d rejected), loaded %d records\n",
		rep.Warm.StoreHits, rep.Warm.WarmLemmas, rep.Warm.WarmCores, rep.Warm.SearchHits, rep.Warm.SearchRejects, rep.Warm.LoadedRecords)
}
