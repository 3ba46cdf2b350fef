package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/lia"
	"repro/internal/logic"
)

func openT(t *testing.T, dir string, params string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Params: params, FlushInterval: 5 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mkLin(k int64, coefs map[string]int64) lia.Lin {
	l := lia.NewLin()
	l.K = k
	for v, c := range coefs {
		l.AddVar(v, c)
	}
	return l
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p1")

	lem := Lemma{
		Lins: []lia.Lin{mkLin(3, map[string]int64{"x": 1, "y": -2}), mkLin(-1, nil)},
		Vals: []bool{true, false},
	}
	s.AppendLemma("skel-a", lem)
	s.AppendVerdict("f1", true)
	s.AppendVerdict("f2", false)
	s.AppendConsistency("g1", true)
	s.AppendOutcome("prob1", "optimal", []byte(`{"proved":true}`))
	s.AppendCore(Core{Unknown: "I", Preds: []string{"pk1", "pk2"}})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	r := openT(t, dir, "p1")
	defer r.Close()
	st := r.Stats()
	if st.ColdStart {
		t.Fatal("reopen reported cold start")
	}
	if st.LoadedLemmas != 1 || st.LoadedVerdicts != 2 || st.LoadedConsistency != 1 || st.LoadedOutcomes != 1 || st.LoadedCores != 1 {
		t.Fatalf("loaded counts = %+v", st)
	}
	got := r.Lemmas("skel-a")
	if len(got) != 1 {
		t.Fatalf("Lemmas = %d records, want 1", len(got))
	}
	// Key() equality before/after is the round-trip property for Lin.
	for i := range lem.Lins {
		if got[0].Lins[i].Key() != lem.Lins[i].Key() {
			t.Errorf("lin %d: key %q != %q", i, got[0].Lins[i].Key(), lem.Lins[i].Key())
		}
		if got[0].Vals[i] != lem.Vals[i] {
			t.Errorf("lin %d: val %v != %v", i, got[0].Vals[i], lem.Vals[i])
		}
	}
	if v, ok := r.Verdict("f1"); !ok || !v {
		t.Errorf("Verdict(f1) = %v,%v", v, ok)
	}
	if v, ok := r.Verdict("f2"); !ok || v {
		t.Errorf("Verdict(f2) = %v,%v", v, ok)
	}
	if v, ok := r.Consistency("g1"); !ok || !v {
		t.Errorf("Consistency(g1) = %v,%v", v, ok)
	}
	if b, ok := r.Outcome("prob1", "optimal"); !ok || string(b) != `{"proved":true}` {
		t.Errorf("Outcome = %q,%v", b, ok)
	}
	cores := r.Cores()
	if len(cores) != 1 || cores[0].Unknown != "I" || len(cores[0].Preds) != 2 {
		t.Errorf("Cores = %+v", cores)
	}
}

// TestLinCheckerVerdictAfterRoundTrip is the property test the issue asks
// for: a persisted Lin vector must produce the same checker verdict after a
// disk round trip as before.
func TestLinCheckerVerdictAfterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	vars := []string{"x", "y", "z"}
	var systems [][]lia.Lin
	s := openT(t, dir, "p")
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(4)
		sys := make([]lia.Lin, n)
		vals := make([]bool, n)
		for j := range sys {
			coefs := map[string]int64{}
			for _, v := range vars {
				if rng.Intn(2) == 0 {
					coefs[v] = int64(rng.Intn(7) - 3)
				}
			}
			sys[j] = mkLin(int64(rng.Intn(9)-4), coefs)
			vals[j] = true
		}
		systems = append(systems, sys)
		s.AppendLemma("rt", Lemma{Lins: sys, Vals: vals})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openT(t, dir, "p")
	defer r.Close()
	got := r.Lemmas("rt")
	if len(got) != len(systems) {
		t.Fatalf("loaded %d lemma records, want %d", len(got), len(systems))
	}
	for i, lem := range got {
		want := lia.Check(systems[i])
		have := lia.Check(lem.Lins)
		if want.Sat != have.Sat {
			t.Errorf("system %d: checker verdict flipped after round trip: %v -> %v", i, want.Sat, have.Sat)
		}
	}
}

func TestFormulaKeyStableAndDistinct(t *testing.T) {
	x := logic.Var{Name: "x"}
	y := logic.Var{Name: "y"}
	f1 := logic.And{Fs: []logic.Formula{
		logic.Atom{Op: logic.Le, X: x, Y: y},
		logic.Not{F: logic.Atom{Op: logic.Eq, X: x, Y: logic.IntLit{Val: 3}}},
	}}
	f2 := logic.And{Fs: []logic.Formula{
		logic.Atom{Op: logic.Le, X: x, Y: y},
		logic.Not{F: logic.Atom{Op: logic.Eq, X: x, Y: logic.IntLit{Val: 4}}},
	}}
	k1a := FormulaKey(f1)
	k1b := FormulaKey(f1)
	k2 := FormulaKey(f2)
	if k1a != k1b {
		t.Errorf("FormulaKey not deterministic: %q vs %q", k1a, k1b)
	}
	if k1a == k2 {
		t.Errorf("distinct formulas share key %q", k1a)
	}
	if len(k1a) != 32 {
		t.Errorf("key length = %d, want 32 hex chars", len(k1a))
	}
}

// TestCorruptionFallsBackCold is the table-driven satellite: every way of
// mangling the store file must yield a working, cold-or-partially-warm store
// — never an error, never a record that was not written.
func TestCorruptionFallsBackCold(t *testing.T) {
	write := func(t *testing.T, dir string) {
		s := openT(t, dir, "params-v1")
		s.AppendVerdict("f1", true)
		s.AppendVerdict("f2", false)
		s.AppendConsistency("g1", true)
		s.AppendLemma("sk", Lemma{Lins: []lia.Lin{mkLin(1, map[string]int64{"x": 1})}, Vals: []bool{true}})
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	cases := []struct {
		name     string
		params   string // params for reopen
		mangle   func(t *testing.T, path string)
		wantCold bool
		// wantPartial: some records may survive (tail damage only).
		wantPartial bool
	}{
		{
			name:   "truncated mid-record",
			params: "params-v1",
			mangle: func(t *testing.T, path string) {
				b := readFileT(t, path)
				os.WriteFile(path, b[:len(b)-7], 0o644)
			},
			wantPartial: true,
		},
		{
			name:   "bit flip in payload",
			params: "params-v1",
			mangle: func(t *testing.T, path string) {
				b := readFileT(t, path)
				// Flip a bit inside the second line's payload.
				i := bytes.IndexByte(b, '\n') + 12
				b[i] ^= 0x20
				os.WriteFile(path, b, 0o644)
			},
			wantPartial: true,
		},
		{
			name:   "bit flip in header",
			params: "params-v1",
			mangle: func(t *testing.T, path string) {
				b := readFileT(t, path)
				b[11] ^= 0x01
				os.WriteFile(path, b, 0o644)
			},
			wantCold: true,
		},
		{
			name:   "version mismatch",
			params: "params-v1",
			mangle: func(t *testing.T, path string) {
				b := readFileT(t, path)
				hdr := b[:bytes.IndexByte(b, '\n')]
				repl := bytes.Replace(hdr, []byte(`"version":1`), []byte(`"version":99`), 1)
				line, _ := reencodeLine(repl)
				os.WriteFile(path, append(line, b[bytes.IndexByte(b, '\n')+1:]...), 0o644)
			},
			wantCold: true,
		},
		{
			name:     "params mismatch",
			params:   "params-v2",
			mangle:   func(t *testing.T, path string) {},
			wantCold: true,
		},
		{
			name:   "garbage file",
			params: "params-v1",
			mangle: func(t *testing.T, path string) {
				os.WriteFile(path, []byte("\x00\x01\x02 not a store at all\xff"), 0o644)
			},
			wantCold: true,
		},
		{
			name:   "empty file",
			params: "params-v1",
			mangle: func(t *testing.T, path string) {
				os.WriteFile(path, nil, 0o644)
			},
			wantCold: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write(t, dir)
			path := filepath.Join(dir, logName)
			tc.mangle(t, path)

			s, err := Open(dir, Options{Params: tc.params, Logf: t.Logf})
			if err != nil {
				t.Fatalf("Open after mangling: %v", err)
			}
			defer s.Close()
			st := s.Stats()
			if tc.wantCold && !st.ColdStart {
				t.Errorf("expected cold start, got %+v", st)
			}
			if tc.wantCold && (st.LoadedVerdicts != 0 || st.LoadedLemmas != 0) {
				t.Errorf("cold start leaked records: %+v", st)
			}
			if tc.wantPartial && st.ColdStart {
				t.Errorf("tail damage should keep the good prefix, got cold start")
			}
			// Whatever survived must be exactly what was written: any
			// present verdict must carry the original value.
			if v, ok := s.Verdict("f1"); ok && !v {
				t.Error("verdict f1 flipped by corruption")
			}
			if v, ok := s.Verdict("f2"); ok && v {
				t.Error("verdict f2 flipped by corruption")
			}
			// The store must accept new appends and survive a clean
			// reopen with the same params.
			s.AppendVerdict("fresh", true)
			if err := s.Close(); err != nil {
				t.Fatalf("Close after mangling: %v", err)
			}
			r, err := Open(dir, Options{Params: tc.params, Logf: t.Logf})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer r.Close()
			if v, ok := r.Verdict("fresh"); !ok || !v {
				t.Errorf("append after corruption recovery did not survive reopen: %v,%v", v, ok)
			}
		})
	}
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reencodeLine recomputes the CRC prefix of a mangled line so the mangle
// survives the checksum (testing semantic validation, not just the CRC).
func reencodeLine(line []byte) ([]byte, error) {
	payload := line[9:]
	out := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	out = append(out, '\n')
	return out, nil
}

func TestDedupAndQueueBounds(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	defer s.Close()
	s.AppendVerdict("same", true)
	s.AppendVerdict("same", true)
	s.AppendCore(Core{Unknown: "I", Preds: []string{"b", "a"}})
	s.AppendCore(Core{Unknown: "I", Preds: []string{"a", "b"}}) // same set, different order
	st := s.Stats()
	if st.Deduped != 2 {
		t.Errorf("Deduped = %d, want 2", st.Deduped)
	}
	if st.Appended != 2 {
		t.Errorf("Appended = %d, want 2", st.Appended)
	}
}

func TestFlushDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	s.AppendVerdict("durable", true)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Simulate a crash: reopen without Close. The flushed record must be
	// on disk.
	r := openT(t, dir, "p")
	if v, ok := r.Verdict("durable"); !ok || !v {
		t.Errorf("flushed verdict lost without Close: %v,%v", v, ok)
	}
	r.Close()
	s.Close()
}

// TestSearchRecords covers the search-result record: an empty list ("no
// solution") stays distinct from no record, an identical append dedups, a
// different one replaces the record, and the replacement — not the first
// record — is what a reopen loads.
func TestSearchRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	s.AppendSearch("none", [][]int{})
	s.AppendSearch("emptysol", [][]int{{}})
	s.AppendSearch("two", [][]int{{0, 3}, {1}})
	s.AppendSearch("two", [][]int{{0, 3}, {1}})
	s.AppendSearch("replaced", [][]int{{2}})
	s.AppendSearch("replaced", [][]int{{1, 2}, {4}})
	s.AppendSearch("unsorted", [][]int{{3, 1}})
	s.AppendSearch("negative", [][]int{{-1}})
	if st := s.Stats(); st.Deduped != 1 || st.Appended != 5 {
		t.Fatalf("Deduped=%d Appended=%d, want 1 and 5", st.Deduped, st.Appended)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, "p")
	defer r.Close()
	if n := r.Stats().LoadedSearches; n != 4 {
		t.Errorf("LoadedSearches = %d, want 4", n)
	}
	want := map[string][][]int{
		"none":     {},
		"emptysol": {{}},
		"two":      {{0, 3}, {1}},
		"replaced": {{1, 2}, {4}},
	}
	for k, w := range want {
		got, ok := r.Search(k)
		if !ok || !equalSearch(got, w) {
			t.Errorf("Search(%q) = %v,%v; want %v", k, got, ok, w)
		}
	}
	if got, _ := r.Search("none"); got == nil {
		t.Error(`"no solution" record loaded as nil`)
	}
	for _, k := range []string{"absent", "unsorted", "negative"} {
		if got, ok := r.Search(k); ok {
			t.Errorf("Search(%q) = %v, want no record", k, got)
		}
	}
	// The superseded "replaced" line is garbage, so the live estimate is
	// below the on-disk size.
	if st := r.Stats(); st.LiveBytes >= st.LogBytes {
		t.Errorf("superseded search record counted live: live=%d log=%d", st.LiveBytes, st.LogBytes)
	}
}
