package optimal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/template"
)

// example4 is Example 4's single-group search: several minimal solutions of
// two predicates each, so neither pre-check settles it.
func example4() (logic.Formula, template.Domain) {
	phi := logic.Imp(
		logic.EqF(logic.V("i"), logic.I(0)),
		logic.All([]string{"j"}, logic.Imp(unk("h"),
			logic.EqF(logic.Sel(logic.AV("A"), logic.V("j")), logic.I(0)))))
	q := template.Domain{"h": qjTerms("j", []logic.Term{logic.I(0), logic.V("i"), logic.V("n")})}
	return phi, q
}

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{
		Params:        smt.Options{}.StoreParams(),
		FlushInterval: 5 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// storeEngine returns an engine whose solver and search both use st.
func storeEngine(st *store.Store) *Engine {
	e := New(smt.NewSolver(smt.Options{Store: st}))
	e.AttachKnowledge(st)
	return e
}

// lifetime opens the store in dir, runs one search on a fresh engine set up
// by tune, and closes the store.
func lifetime(t *testing.T, dir string, phi logic.Formula, q template.Domain, tune func(*Engine)) ([]template.Solution, *Engine) {
	t.Helper()
	st := openStoreT(t, dir)
	e := storeEngine(st)
	if tune != nil {
		tune(e)
	}
	sols := e.OptimalNegativeSolutions(phi, q)
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}
	return sols, e
}

func sameOrder(t *testing.T, got, want []template.Solution) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d solutions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Errorf("solution %d = %s, want %s", i, got[i].Key(), want[i].Key())
		}
	}
}

// TestSearchRecordReplayed: a reopened store answers the group search from
// its record, in the same order, without deciding anything.
func TestSearchRecordReplayed(t *testing.T) {
	phi, q := example4()
	fresh := newEngine().OptimalNegativeSolutions(phi, q)
	dir := t.TempDir()
	cold, ce := lifetime(t, dir, phi, q, nil)
	sameOrder(t, cold, fresh)
	if ce.S.Counters()[stats.SearchHits].Load() != 0 {
		t.Fatalf("cold lifetime hit %d search records", ce.S.Counters()[stats.SearchHits].Load())
	}
	warm, we := lifetime(t, dir, phi, q, nil)
	sameOrder(t, warm, fresh)
	if we.S.Counters()[stats.SearchHits].Load() != 1 || we.S.Counters()[stats.SearchRejects].Load() != 0 {
		t.Errorf("warm hits=%d rejects=%d, want 1 and 0", we.S.Counters()[stats.SearchHits].Load(), we.S.Counters()[stats.SearchRejects].Load())
	}
	if n := we.S.NumQueries(); n != 0 {
		t.Errorf("warm replay ran %d SMT queries", n)
	}
}

// tamperSearch rewrites every search record in dir's log whose first
// solution is non-empty so that solution loses its last item, re-seals each
// line with a valid CRC, and returns how many records it changed. A strict
// subset of a minimal solution is never valid.
func tamperSearch(t *testing.T, dir string) int {
	t.Helper()
	path := filepath.Join(dir, "knowledge.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	tampered := 0
	for i, line := range lines {
		if !bytes.Contains(line, []byte(`"t":"srch"`)) {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(bytes.TrimSpace(line[9:]), &rec); err != nil {
			t.Fatal(err)
		}
		sols := rec["sols"].([]any)
		if len(sols) == 0 || len(sols[0].([]any)) == 0 {
			continue
		}
		first := sols[0].([]any)
		sols[0] = first[:len(first)-1]
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = append(fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload)), append(payload, '\n')...)
		tampered++
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return tampered
}

// TestSearchRecordTamperRejected: a record that passes its CRC but lists a
// solution that is not valid is rejected on replay. The engine counts one
// reject, returns exactly what a fresh search returns, and the fresh result
// replaces the record, so the next lifetime hits cleanly.
func TestSearchRecordTamperRejected(t *testing.T) {
	phi, q := example4()
	fresh := newEngine().OptimalNegativeSolutions(phi, q)
	dir := t.TempDir()
	lifetime(t, dir, phi, q, nil)
	if n := tamperSearch(t, dir); n != 1 {
		t.Fatalf("tampered %d search records, want 1", n)
	}

	got, e := lifetime(t, dir, phi, q, nil)
	if e.S.Counters()[stats.SearchRejects].Load() != 1 || e.S.Counters()[stats.SearchHits].Load() != 0 {
		t.Errorf("tampered lifetime rejects=%d hits=%d, want 1 and 0", e.S.Counters()[stats.SearchRejects].Load(), e.S.Counters()[stats.SearchHits].Load())
	}
	sameOrder(t, got, fresh)

	again, e := lifetime(t, dir, phi, q, nil)
	if e.S.Counters()[stats.SearchRejects].Load() != 0 || e.S.Counters()[stats.SearchHits].Load() != 1 {
		t.Errorf("after replacement rejects=%d hits=%d, want 0 and 1", e.S.Counters()[stats.SearchRejects].Load(), e.S.Counters()[stats.SearchHits].Load())
	}
	sameOrder(t, again, fresh)
}

// TestSearchRecordKeyBounds: a record written under another MaxDepth,
// MaxSolutions, or predicate order is never hit (nor rejected: it is simply
// not found).
func TestSearchRecordKeyBounds(t *testing.T) {
	phi, q := example4()
	dir := t.TempDir()
	lifetime(t, dir, phi, q, nil)

	reversed := template.Domain{"h": nil}
	for i := len(q["h"]) - 1; i >= 0; i-- {
		reversed["h"] = append(reversed["h"], q["h"][i])
	}
	cases := []struct {
		name string
		q    template.Domain
		tune func(*Engine)
	}{
		{"MaxDepth", q, func(e *Engine) { e.MaxDepth = 3 }},
		{"MaxSolutions", q, func(e *Engine) { e.MaxSolutions = 63 }},
		{"predicate order", reversed, nil},
	}
	for _, c := range cases {
		sub := t.TempDir()
		copyLog(t, dir, sub)
		_, e := lifetime(t, sub, phi, c.q, c.tune)
		if e.S.Counters()[stats.SearchHits].Load() != 0 || e.S.Counters()[stats.SearchRejects].Load() != 0 {
			t.Errorf("%s changed: hits=%d rejects=%d, want 0 and 0", c.name, e.S.Counters()[stats.SearchHits].Load(), e.S.Counters()[stats.SearchRejects].Load())
		}
	}
	// The unchanged search still hits.
	if _, e := lifetime(t, dir, phi, q, nil); e.S.Counters()[stats.SearchHits].Load() != 1 {
		t.Errorf("unchanged search hits=%d, want 1", e.S.Counters()[stats.SearchHits].Load())
	}
}

func copyLog(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(from, "knowledge.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(to, "knowledge.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSearchRecordStopWritesNone: a search cut short by Stop leaves no record
// behind, so a later lifetime cannot replay a deadline artifact.
func TestSearchRecordStopWritesNone(t *testing.T) {
	phi, q := example4()
	dir := t.TempDir()
	_, e := lifetime(t, dir, phi, q, func(e *Engine) { e.Stop = func() bool { return true } })
	if e.S.Counters()[stats.SearchHits].Load() != 0 {
		t.Fatalf("stopped lifetime hit %d records", e.S.Counters()[stats.SearchHits].Load())
	}
	st := openStoreT(t, dir)
	defer st.Close()
	if n := st.Stats().LoadedSearches; n != 0 {
		t.Errorf("stopped search persisted %d records, want 0", n)
	}
}
