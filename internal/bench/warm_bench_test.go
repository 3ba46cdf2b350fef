package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/store"
)

// warmBaseline is the committed record of the warm-restart benchmark; the
// gate reads only the warm arm's recorded from-scratch work from it.
const warmBaseline = "../../BENCH_8.json"

// work is a cell's from-scratch solving work: SMT validity queries plus
// Fourier–Motzkin eliminations (from-scratch and incremental runs).
func work(m Measurement) int64 {
	return int64(m.Counters[stats.Queries] + m.Counters[stats.FMScratch] + m.Counters[stats.FMIncremental])
}

// withinWarmBaseline reports whether a warm arm's from-scratch work stays
// within 2x the recorded baseline. A recorded 0 admits only 0: the warm arm
// must then answer everything from the store.
func withinWarmBaseline(got, recorded int64) bool { return got <= 2*recorded }

// runWarmArm is one lifetime of the warm-restart benchmark: it opens the
// knowledge store in dir, runs the tasks against it (each cell a fresh
// Verifier sharing the one store, the serving pool's shape), and closes the
// store, flushing the write-behind queue as a drained daemon would.
func runWarmArm(t *testing.T, dir string, tasks []Task) ([]Measurement, store.Stats) {
	t.Helper()
	cfg := core.Config{}
	st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Knowledge = st
	r := &Runner{Timeout: 2 * time.Minute, Stats: stats.New(), Config: cfg, Parallel: runtime.GOMAXPROCS(0)}
	cells := runCells(t, r, tasks)
	ss := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return cells, ss
}

// TestWithinWarmBaseline pins the regression gate's comparison, a recorded
// zero included.
func TestWithinWarmBaseline(t *testing.T) {
	for _, c := range []struct {
		got, recorded int64
		want          bool
	}{
		{0, 0, true},
		{1, 0, false},
		{10, 5, true},
		{11, 5, false},
		{0, 5, true},
	} {
		if got := withinWarmBaseline(c.got, c.recorded); got != c.want {
			t.Errorf("withinWarmBaseline(%d, %d) = %v, want %v", c.got, c.recorded, got, c.want)
		}
	}
}

// TestWarmBench is `make bench-warm`: the default suite run cold on a fresh
// knowledge store, then again reopening the same store — a daemon restart.
// The warm lifetime must prove exactly what the cold one proved with at
// least 5x less from-scratch work (SMT queries + Fourier–Motzkin
// eliminations), and no more than 2x the warm work recorded in the
// committed BENCH_8.json.
func TestWarmBench(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-restart benchmark is not a -short test")
	}
	var baseline struct {
		Findings struct {
			WarmWork int64 `json:"warm_work"`
		} `json:"findings"`
	}
	b, err := os.ReadFile(warmBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &baseline); err != nil {
		t.Fatalf("%s: %v", warmBaseline, err)
	}

	dir := t.TempDir()
	cold, coldStore := runWarmArm(t, dir, DefaultSuite())
	warm, warmStore := runWarmArm(t, dir, DefaultSuite())
	if !coldStore.ColdStart {
		t.Error("first lifetime did not report a cold store")
	}
	if warmStore.ColdStart {
		t.Error("second lifetime reported a cold store: nothing persisted or load failed")
	}
	loaded := warmStore.LoadedLemmas + warmStore.LoadedCores + warmStore.LoadedVerdicts +
		warmStore.LoadedConsistency + warmStore.LoadedOutcomes + warmStore.LoadedSearches
	if loaded == 0 {
		t.Error("warm lifetime loaded zero records")
	}
	if len(cold) != len(warm) {
		t.Fatalf("arm cell counts differ: %d vs %d", len(cold), len(warm))
	}
	for i := range cold {
		c, w := cold[i], warm[i]
		if c.Task != w.Task || c.Method != w.Method || c.Proved != w.Proved {
			t.Errorf("warm restart changed a verdict: %s/%s proved=%v, then %s/%s proved=%v",
				c.Task, c.Method, c.Proved, w.Task, w.Method, w.Proved)
		}
	}

	cs, ws := sumCells(cold), sumCells(warm)
	cc, wc := &cs.Counters, &ws.Counters
	storeHits := wc[stats.StoreVerdictHits] + wc[stats.StoreConsHits]
	t.Logf("cold: work=%d (q=%.0f fm=%.0f+%.0f) %.2fs", work(cs), cc[stats.Queries], cc[stats.FMScratch], cc[stats.FMIncremental], cs.Duration.Seconds())
	t.Logf("warm: work=%d (q=%.0f fm=%.0f+%.0f) hits=%.0f lemmas=%.0f cores=%.0f %.2fs", work(ws),
		wc[stats.Queries], wc[stats.FMScratch], wc[stats.FMIncremental], storeHits, wc[stats.StoreWarmLemmas], wc[stats.StoreWarmCores], ws.Duration.Seconds())
	t.Logf("warm: searches loaded=%d hits=%.0f rejects=%.0f", warmStore.LoadedSearches, wc[stats.SearchHits], wc[stats.SearchRejects])
	if work(ws)*5 > work(cs) {
		t.Errorf("warm restart did not cut from-scratch work >=5x: cold %d vs warm %d", work(cs), work(ws))
	}
	if !withinWarmBaseline(work(ws), baseline.Findings.WarmWork) {
		t.Errorf("warm from-scratch work regressed above 2x baseline: %d vs recorded %d in %s",
			work(ws), baseline.Findings.WarmWork, warmBaseline)
	}
	if storeHits == 0 {
		t.Error("warm lifetime answered nothing from the store")
	}
	if wc[stats.SearchHits] == 0 {
		t.Error("warm lifetime replayed no group search from the store")
	}
	if wc[stats.SearchRejects] != 0 {
		t.Errorf("warm lifetime rejected %.0f persisted search results written by the cold one", wc[stats.SearchRejects])
	}
}

// TestWarmVsCompactedExamples is the compaction arm of the verdict-identity
// sweep behind `make test-differential`: every examples/ problem is solved
// cold on a fresh store, the log is compacted to a new generation, and a
// lifetime over the compacted store must agree exactly with the cold one —
// same verdicts, same inferred precondition sets — while answering from the
// store (compaction must lose no live knowledge, group-search results
// included).
func TestWarmVsCompactedExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples warm/compacted sweep skipped in -short mode (run via make test-differential)")
	}
	for _, cell := range exampleCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			dir := t.TempDir()
			lifetime := func() (verdicts []bool, pres []string, loaded, searchHits int64) {
				cfg := core.Config{}
				st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams(), Logf: t.Logf})
				if err != nil {
					t.Fatalf("store.Open: %v", err)
				}
				ss := st.Stats()
				loaded = ss.LoadedLemmas + ss.LoadedCores + ss.LoadedVerdicts + ss.LoadedConsistency + ss.LoadedOutcomes + ss.LoadedSearches
				defer func() {
					if err := st.Close(); err != nil {
						t.Fatalf("store.Close: %v", err)
					}
				}()
				cfg.Knowledge = st
				v := core.New(cfg)
				defer func() { searchHits = v.Engine().S.Counters()[stats.SearchHits].Load() }()
				if cell.methods == nil {
					ps, _, err := v.InferPreconditions(cell.build())
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range ps {
						pres = append(pres, p.Pre.String())
					}
					return nil, pres, loaded, 0
				}
				for _, m := range cell.methods {
					o, err := v.Verify(cell.build(), m)
					if err != nil {
						t.Fatal(err)
					}
					verdicts = append(verdicts, o.Proved)
				}
				return verdicts, nil, loaded, 0
			}

			coldV, coldP, _, _ := lifetime()

			st, err := store.Open(dir, store.Options{Params: core.Config{}.SMT.StoreParams(), Logf: t.Logf})
			if err != nil {
				t.Fatalf("reopen for compaction: %v", err)
			}
			reclaimed, err := st.Compact()
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("compact: %v", err)
			}
			t.Logf("compacted: reclaimed %d bytes", reclaimed)

			warmV, warmP, warmLoaded, warmHits := lifetime()
			if len(coldV) != len(warmV) {
				t.Fatalf("verdict count changed: %d vs %d", len(coldV), len(warmV))
			}
			for i := range coldV {
				if coldV[i] != warmV[i] {
					t.Errorf("method %v: cold proved=%v, compacted-warm proved=%v", cell.methods[i], coldV[i], warmV[i])
				}
			}
			if len(coldP) != len(warmP) {
				t.Fatalf("precondition count changed: cold %v vs compacted-warm %v", coldP, warmP)
			}
			seen := map[string]bool{}
			for _, p := range coldP {
				seen[p] = true
			}
			for _, p := range warmP {
				if !seen[p] {
					t.Errorf("compacted-warm lifetime inferred precondition %q absent from cold set %v", p, coldP)
				}
			}
			if warmLoaded == 0 {
				t.Error("compacted store loaded zero records; compaction dropped live knowledge")
			}
			if warmHits == 0 {
				t.Error("compacted store replayed no group search; compaction dropped search results")
			}
		})
	}
}

// TestWarmVsColdExamples is the verdict-identity differential sweep behind
// `make test-differential`: every examples/ problem is solved cold on a
// fresh store, then again on a reopened store, and the two lifetimes must
// agree exactly — same verdicts, same inferred precondition sets.
func TestWarmVsColdExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples warm/cold sweep skipped in -short mode (run via make test-differential)")
	}
	for _, cell := range exampleCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			dir := t.TempDir()
			lifetime := func() (verdicts []bool, pres []string) {
				cfg := core.Config{}
				st, err := store.Open(dir, store.Options{Params: cfg.SMT.StoreParams(), Logf: t.Logf})
				if err != nil {
					t.Fatalf("store.Open: %v", err)
				}
				defer func() {
					if err := st.Close(); err != nil {
						t.Fatalf("store.Close: %v", err)
					}
				}()
				cfg.Knowledge = st
				v := core.New(cfg)
				if cell.methods == nil {
					ps, _, err := v.InferPreconditions(cell.build())
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range ps {
						pres = append(pres, p.Pre.String())
					}
					return nil, pres
				}
				for _, m := range cell.methods {
					o, err := v.Verify(cell.build(), m)
					if err != nil {
						t.Fatal(err)
					}
					verdicts = append(verdicts, o.Proved)
				}
				return verdicts, nil
			}

			coldV, coldP := lifetime()
			warmV, warmP := lifetime()
			if len(coldV) != len(warmV) {
				t.Fatalf("verdict count changed: %d vs %d", len(coldV), len(warmV))
			}
			for i := range coldV {
				if coldV[i] != warmV[i] {
					t.Errorf("method %v: cold proved=%v, warm proved=%v", cell.methods[i], coldV[i], warmV[i])
				}
			}
			if len(coldP) != len(warmP) {
				t.Fatalf("precondition count changed: cold %v vs warm %v", coldP, warmP)
			}
			seen := map[string]bool{}
			for _, p := range coldP {
				seen[p] = true
			}
			for _, p := range warmP {
				if !seen[p] {
					t.Errorf("warm lifetime inferred precondition %q absent from cold set %v", p, coldP)
				}
			}
		})
	}
}
