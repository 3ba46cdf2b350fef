package optimal_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/optimal"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/template"
)

// examples lists every problem the examples/ programs exercise, with the
// methods they run (nil means precondition inference); it mirrors the
// bench package's differential sweep list.
var examples = []struct {
	name    string
	build   func() *spec.Problem
	methods []core.Method
}{
	{"ArrayInit (quickstart)", bench.ArrayInit, core.Methods},
	{"Quick Sort (inner) sortedness", bench.QuickSortInnerSorted, []core.Method{core.LFP}},
	{"Quick Sort (inner) preservation", bench.QuickSortInnerPreserves, []core.Method{core.LFP, core.CFP}},
	{"Bubble Sort (flag) sortedness", bench.BubbleSortFlagSorted, []core.Method{core.GFP}},
	{"Bubble Sort (flag) preservation", bench.BubbleSortFlagPreserves, core.Methods},
	{"Partial Init precondition", bench.PartialInit, nil},
	{"Init Synthesis precondition", bench.InitSynthesis, nil},
	{"Quick Sort (inner) worst case", bench.QuickSortInnerWorstCase, nil},
	{"Scaled Init", bench.ScaledInit, []core.Method{core.LFP}},
	{"Double Stride", bench.DoubleStride, []core.Method{core.LFP}},
	{"Half Bound", bench.HalfBound, []core.Method{core.LFP}},
}

// runOn runs one method (or precondition inference when m is nil) of a
// problem on a fresh Verifier attached to the store in dir, and returns the
// verdict (for inference: the preconditions), the engine's search hits and
// rejects, and how many search records the store loaded.
func runOn(t *testing.T, dir string, build func() *spec.Problem, m *core.Method) (verdict any, hits, rejects, loaded int64) {
	t.Helper()
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
	loaded = st.Stats().LoadedSearches
	cfg.Knowledge = st
	v := core.New(cfg)
	if m == nil {
		ps, _, err := v.InferPreconditions(build())
		if err != nil {
			t.Fatal(err)
		}
		var pres []string
		for _, p := range ps {
			pres = append(pres, p.Pre.String())
		}
		verdict = strings.Join(pres, "; ")
	} else {
		o, err := v.Verify(build(), *m)
		if err != nil {
			t.Fatal(err)
		}
		verdict = o.Proved
	}
	return verdict, v.Engine().S.Counters()[stats.SearchHits].Load(), v.Engine().S.Counters()[stats.SearchRejects].Load(), loaded
}

// methodsOf expands an example's methods; a nil entry stands for
// precondition inference.
func methodsOf(ms []core.Method) []*core.Method {
	if ms == nil {
		return []*core.Method{nil}
	}
	out := make([]*core.Method, len(ms))
	for i := range ms {
		out[i] = &ms[i]
	}
	return out
}

func methodName(m *core.Method) string {
	if m == nil {
		return "pre"
	}
	return m.String()
}

// TestSearchReplayIdentical is the replay-identity sweep behind
// `make test-differential`: for every examples/ problem and method, a
// lifetime on a store the cold lifetime filled replays its group searches,
// and each replayed solution list equals a fresh enumeration of the same
// group element for element, in the same order, with zero rejects. (Runs
// with only positive unknowns, such as ArrayInit under GFP, search no
// negative group and persist nothing.)
func TestSearchReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("examples replay-identity sweep skipped in -short mode (run via make test-differential)")
	}
	var total int64
	defer func() {
		if total == 0 {
			t.Error("no group search replayed anywhere; sweep vacuous")
		}
	}()
	for _, ex := range examples {
		for _, m := range methodsOf(ex.methods) {
			t.Run(ex.name+"/"+methodName(m), func(t *testing.T) {
				dir := t.TempDir()
				runOn(t, dir, ex.build, m)

				type replay struct {
					phi  logic.Formula
					q    template.Domain
					sols []template.Solution
				}
				var mu sync.Mutex
				var seen []replay
				optimal.ObserveReplays(t, func(phi logic.Formula, q template.Domain, sols []template.Solution) {
					mu.Lock()
					seen = append(seen, replay{phi, q, sols})
					mu.Unlock()
				})
				_, hits, rejects, loaded := runOn(t, dir, ex.build, m)
				total += hits
				if rejects != 0 {
					t.Errorf("%d persisted search results rejected", rejects)
				}
				if int64(len(seen)) != hits || (hits == 0) != (loaded == 0) {
					t.Fatalf("hits=%d observed=%d loaded=%d; want hits observed, and hits iff records", hits, len(seen), loaded)
				}
				for _, r := range seen {
					fresh := optimal.FreshSearch(r.phi, r.q)
					if len(fresh) != len(r.sols) {
						t.Errorf("group %v: replayed %d solutions, fresh %d", r.phi, len(r.sols), len(fresh))
						continue
					}
					for i := range fresh {
						if fresh[i].Key() != r.sols[i].Key() {
							t.Errorf("group %v: solution %d replayed %s, fresh %s", r.phi, i, r.sols[i].Key(), fresh[i].Key())
						}
					}
				}
			})
		}
	}
}

// TestSearchRecordTamperKeepsVerdict: every search record of a solved
// problem is tampered (a valid CRC over a first solution that lost an
// item). The next lifetime rejects them, searches afresh, and reaches the
// same verdict.
func TestSearchRecordTamperKeepsVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end tamper check skipped in -short mode (run via make test-differential)")
	}
	for _, m := range []core.Method{core.LFP, core.CFP} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			dir := t.TempDir()
			want, _, _, _ := runOn(t, dir, bench.ArrayInit, &m)
			if n := optimal.TamperSearch(t, dir); n == 0 {
				t.Fatal("no search record to tamper with")
			}
			got, _, rejects, _ := runOn(t, dir, bench.ArrayInit, &m)
			if got != want {
				t.Errorf("verdict %v after tampering, want %v", got, want)
			}
			if rejects == 0 {
				t.Error("tampered records were not rejected")
			}
		})
	}
}
