package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// TestWarmBench is `make bench-warm`: the default suite run cold on a fresh
// knowledge store, then again reopening the same store — a daemon restart.
// The warm lifetime must prove exactly what the cold one proved with at
// least 5x less from-scratch work (SMT queries + Fourier–Motzkin
// eliminations). Writes BENCH_8.json when VS3_BENCH_OUT is set; when
// VS3_BENCH_BASE points at a previous BENCH_8.json, the warm arm must not
// regress above 2x the recorded warm baseline work.
func TestWarmBench(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-restart benchmark is not a -short test")
	}
	rep, err := RunWarmBench(t.TempDir(), "default", 2*time.Minute, runtime.GOMAXPROCS(0), DefaultSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(append([]CellReport{}, rep.Cold.Cells...), rep.Warm.Cells...) {
		if c.Err != "" {
			t.Fatalf("%s/%s: %s", c.Task, c.Method, c.Err)
		}
	}
	if rep.Cold.ColdStart != true {
		t.Error("first lifetime did not report a cold store")
	}
	if rep.Warm.ColdStart {
		t.Error("second lifetime reported a cold store: nothing persisted or load failed")
	}
	if rep.Warm.LoadedRecords == 0 {
		t.Error("warm lifetime loaded zero records")
	}
	if !rep.Findings.VerdictsIdentical {
		t.Error("warm restart changed at least one verdict")
	}
	t.Logf("cold: work=%d (q=%d fm=%d+%d) %.2fs", rep.Findings.ColdWork,
		rep.Cold.Queries, rep.Cold.FMScratch, rep.Cold.FMIncremental, rep.Cold.CellSeconds)
	t.Logf("warm: work=%d (q=%d fm=%d+%d) hits=%d lemmas=%d cores=%d %.2fs", rep.Findings.WarmWork,
		rep.Warm.Queries, rep.Warm.FMScratch, rep.Warm.FMIncremental,
		rep.Warm.StoreHits, rep.Warm.WarmLemmas, rep.Warm.WarmCores, rep.Warm.CellSeconds)
	if rep.Findings.WarmWork*5 > rep.Findings.ColdWork {
		t.Errorf("warm restart did not cut from-scratch work >=5x: cold %d vs warm %d",
			rep.Findings.ColdWork, rep.Findings.WarmWork)
	}
	if rep.Warm.StoreHits == 0 {
		t.Error("warm lifetime answered nothing from the store")
	}
	t.Logf("warm: searches loaded=%d hits=%d rejects=%d", rep.Warm.LoadedSearches, rep.Warm.SearchHits, rep.Warm.SearchRejects)
	if rep.Warm.SearchHits == 0 {
		t.Error("warm lifetime replayed no group search from the store")
	}
	if rep.Warm.SearchRejects != 0 {
		t.Errorf("warm lifetime rejected %d persisted search results written by the cold one", rep.Warm.SearchRejects)
	}

	if base := os.Getenv("VS3_BENCH_BASE"); base != "" {
		var prev WarmReport
		b, err := os.ReadFile(base)
		if err != nil {
			t.Logf("baseline %s not readable (%v); skipping regression gate", base, err)
		} else if err := json.Unmarshal(b, &prev); err != nil {
			t.Fatalf("baseline %s: %v", base, err)
		} else if prev.Findings.WarmWork > 0 && rep.Findings.WarmWork > 2*prev.Findings.WarmWork {
			t.Errorf("warm from-scratch work regressed above 2x baseline: %d vs recorded %d",
				rep.Findings.WarmWork, prev.Findings.WarmWork)
		}
	}

	out := os.Getenv("VS3_BENCH_OUT")
	if out == "" {
		return
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
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
				defer func() { searchHits = v.Engine().NumSearchHits() }()
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
