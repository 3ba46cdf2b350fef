package bench

import (
	"encoding/json"
	"io"
	"time"
)

// DefaultSuite returns the fast representative benchmark subset (the same
// tasks the always-on search tests run): one sortedness, one preservation,
// two functional-correctness preconditions, one worst-case bound, and the
// two fast list tasks. It is the suite behind `make bench-json` and
// `benchtab -json`, sized to finish in minutes rather than the tens of
// minutes the full Table 6 sweep takes.
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

// QuickSuite returns the one-task sanity suite behind `make bench-quick`:
// List Delete runs all three methods, giving one fast cell per algorithm.
func QuickSuite() []Task {
	return []Task{ArrayListTasks()[3]}
}

// CellReport is one (task, method) entry of a JSON benchmark report.
type CellReport struct {
	Task      string  `json:"task"`
	Property  string  `json:"property"`
	Method    string  `json:"method"`
	Proved    bool    `json:"proved"`
	Seconds   float64 `json:"seconds"`
	Queries   int64   `json:"queries"`
	CacheHits int64   `json:"cache_hits"`
	// Incremental-solving counters (see Measurement); omitted when zero so
	// old reports and non-incremental runs stay compact.
	Contexts         int64 `json:"contexts,omitempty"`
	AssumptionProbes int64 `json:"assumption_probes,omitempty"`
	LemmaReuse       int64 `json:"lemma_reuse,omitempty"`
	CorePruned       int64 `json:"core_pruned,omitempty"`
	CoreEvicted      int64 `json:"core_evicted,omitempty"`
	SharedLemmas     int64 `json:"shared_lemmas,omitempty"`
	// Fourier–Motzkin counters (see Measurement).
	FMScratch       int64 `json:"fm_scratch,omitempty"`
	FMIncremental   int64 `json:"fm_incremental,omitempty"`
	FMCubeHits      int64 `json:"fm_cube_hits,omitempty"`
	FMCapHits       int64 `json:"fm_cap_hits,omitempty"`
	DormantContexts int64 `json:"dormant_contexts,omitempty"`
	// Knowledge-store counters (see Measurement); nonzero only for runs with
	// an attached on-disk store.
	StoreHits     int64 `json:"store_hits,omitempty"`
	WarmLemmas    int64 `json:"warm_lemmas,omitempty"`
	WarmCores     int64 `json:"warm_cores,omitempty"`
	SearchHits    int64 `json:"search_hits,omitempty"`
	SearchRejects int64 `json:"search_rejects,omitempty"`
	// Truncated and Aborted surface incomplete searches (see Measurement).
	Truncated bool   `json:"truncated,omitempty"`
	Aborted   bool   `json:"aborted,omitempty"`
	Err       string `json:"error,omitempty"`
}

// Report is the machine-readable result of a benchmark run (BENCH_N.json).
type Report struct {
	// Suite labels the task set ("default").
	Suite string `json:"suite"`
	// Parallel is the runner's worker count.
	Parallel int `json:"parallel"`
	// WallSeconds is the elapsed wall-clock of the whole run.
	WallSeconds float64 `json:"wall_seconds"`
	// CellSeconds is the summed per-cell wall-clock (wall × speedup).
	CellSeconds float64 `json:"cell_seconds"`
	// Queries and CacheHits are summed over all cells, as are the
	// incremental-solving counters.
	Queries          int64        `json:"queries"`
	CacheHits        int64        `json:"cache_hits"`
	AssumptionProbes int64        `json:"assumption_probes,omitempty"`
	CorePruned       int64        `json:"core_pruned,omitempty"`
	CoreEvicted      int64        `json:"core_evicted,omitempty"`
	FMScratch        int64        `json:"fm_scratch,omitempty"`
	FMIncremental    int64        `json:"fm_incremental,omitempty"`
	Cells            []CellReport `json:"cells"`
}

// RunJSON executes the tasks with the runner and writes a Report to w.
// Cells appear in task/method order regardless of the runner's parallelism.
func RunJSON(w io.Writer, r *Runner, suite string, tasks []Task) error {
	start := time.Now()
	results := r.RunAll(tasks)
	rep := Report{
		Suite:       suite,
		Parallel:    r.parallel(),
		WallSeconds: time.Since(start).Seconds(),
		CellSeconds: r.CellTime().Seconds(),
	}
	for _, ms := range results {
		for _, m := range ms {
			cell := CellReport{
				Task:             m.Task,
				Property:         m.Property,
				Method:           m.Method.String(),
				Proved:           m.Proved,
				Seconds:          m.Duration.Seconds(),
				Queries:          m.Queries,
				CacheHits:        m.CacheHits,
				Contexts:         m.Contexts,
				AssumptionProbes: m.AssumptionProbes,
				LemmaReuse:       m.LemmaReuse,
				CorePruned:       m.CorePruned,
				CoreEvicted:      m.CoreEvicted,
				SharedLemmas:     m.SharedLemmas,
				FMScratch:        m.FMScratch,
				FMIncremental:    m.FMIncremental,
				FMCubeHits:       m.FMCubeHits,
				FMCapHits:        m.FMCapHits,
				DormantContexts:  m.DormantContexts,
				StoreHits:        m.StoreHits,
				WarmLemmas:       m.WarmLemmas,
				WarmCores:        m.WarmCores,
				SearchHits:       m.SearchHits,
				SearchRejects:    m.SearchRejects,
				Truncated:        m.Truncated,
				Aborted:          m.Aborted,
			}
			if m.Err != nil {
				cell.Err = m.Err.Error()
			}
			rep.Queries += m.Queries
			rep.CacheHits += m.CacheHits
			rep.AssumptionProbes += m.AssumptionProbes
			rep.CorePruned += m.CorePruned
			rep.CoreEvicted += m.CoreEvicted
			rep.FMScratch += m.FMScratch
			rep.FMIncremental += m.FMIncremental
			rep.Cells = append(rep.Cells, cell)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
