package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lia"
)

// fillT writes a representative mix of records through the append API and
// returns the expected content checks as a func.
func fillT(t *testing.T, s *Store, n int) func(*testing.T, *Store) {
	t.Helper()
	for i := 0; i < n; i++ {
		s.AppendVerdict(fmt.Sprintf("f%d", i), i%2 == 0)
		s.AppendConsistency(fmt.Sprintf("g%d", i), i%3 == 0)
		s.AppendOutcome(fmt.Sprintf("prob%d", i), "optimal", []byte(fmt.Sprintf(`{"proved":true,"i":%d}`, i)))
		s.AppendSearch(fmt.Sprintf("s%d", i), searchOf(i))
	}
	s.AppendLemma("skel-a", Lemma{
		Lins: []lia.Lin{mkLin(3, map[string]int64{"x": 1, "y": -2}), mkLin(-1, nil)},
		Vals: []bool{true, false},
	})
	s.AppendCore(Core{Unknown: "I", Preds: []string{"p1", "p2"}})
	return func(t *testing.T, r *Store) {
		t.Helper()
		for i := 0; i < n; i++ {
			if v, ok := r.Verdict(fmt.Sprintf("f%d", i)); !ok || v != (i%2 == 0) {
				t.Fatalf("verdict f%d = %v,%v", i, v, ok)
			}
			if v, ok := r.Consistency(fmt.Sprintf("g%d", i)); !ok || v != (i%3 == 0) {
				t.Fatalf("consistency g%d = %v,%v", i, v, ok)
			}
			want := fmt.Sprintf(`{"proved":true,"i":%d}`, i)
			if b, ok := r.Outcome(fmt.Sprintf("prob%d", i), "optimal"); !ok || string(b) != want {
				t.Fatalf("outcome prob%d = %q,%v", i, b, ok)
			}
			if sols, ok := r.Search(fmt.Sprintf("s%d", i)); !ok || !equalSearch(sols, searchOf(i)) {
				t.Fatalf("search s%d = %v,%v", i, sols, ok)
			}
		}
		if len(r.Lemmas("skel-a")) != 1 {
			t.Fatalf("lemmas = %d, want 1", len(r.Lemmas("skel-a")))
		}
		if len(r.Cores()) != 1 {
			t.Fatalf("cores = %d, want 1", len(r.Cores()))
		}
	}
}

// searchOf is fillT's search record for index i; every third one is the
// empty "no solution" list.
func searchOf(i int) [][]int {
	if i%3 == 0 {
		return [][]int{}
	}
	return [][]int{{i}, {i + 1, i + 2}}
}

// duplicateLog rewrites the log so its record body (everything after the
// header line) appears copies times — the duplicate-heavy shape a
// pre-compaction fleet accumulates across lifetimes of re-learned records.
func duplicateLog(t *testing.T, dir string, copies int) {
	t.Helper()
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		t.Fatal("no header line")
	}
	hdr, body := data[:nl+1], data[nl+1:]
	out := append([]byte(nil), hdr...)
	for i := 0; i < copies; i++ {
		out = append(out, body...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func noCorrupt(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, logName+".corrupt")); err == nil {
		t.Fatal("store sidelined a .corrupt file; compaction crash states must load cleanly")
	}
}

// TestCompactShrinksDuplicateHeavyLog is the core compaction property: a log
// holding the same record set four times over compacts to roughly one copy
// (>=3x smaller) with identical content before and after, across a reopen.
func TestCompactShrinksDuplicateHeavyLog(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	check := fillT(t, s, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	duplicateLog(t, dir, 4)
	before := logSize(t, dir)

	s = openT(t, dir, "p")
	check(t, s)
	st := s.Stats()
	if st.LiveBytes >= st.LogBytes {
		t.Fatalf("duplicate-heavy log not detected: live=%d log=%d", st.LiveBytes, st.LogBytes)
	}
	reclaimed, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if reclaimed <= 0 {
		t.Fatalf("reclaimed = %d", reclaimed)
	}
	after := logSize(t, dir)
	if after*3 > before {
		t.Fatalf("compaction shrank %d -> %d bytes; want >=3x", before, after)
	}
	st = s.Stats()
	if st.Compactions != 1 || st.ReclaimedBytes != reclaimed {
		t.Fatalf("stats after compact: %+v", st)
	}
	check(t, s) // content intact in the running store

	// The compacted generation must also be the durable truth.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, "p")
	defer r.Close()
	if r.Stats().ColdStart {
		t.Fatal("compacted store reported cold start")
	}
	check(t, r)
	noCorrupt(t, dir)
}

// TestCompactConcurrentWithAppends drives appends from several goroutines
// while compactions run; every record accepted before Close must survive the
// generation swaps (writes during a rewrite land in the queue and are
// replayed onto the new generation).
func TestCompactConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.AppendVerdict(fmt.Sprintf("w%d-f%d", w, i), true)
				s.AppendOutcome(fmt.Sprintf("w%d-p%d", w, i), "optimal", []byte(`{"proved":true}`))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if _, err := s.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, "p")
	defer r.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, ok := r.Verdict(fmt.Sprintf("w%d-f%d", w, i)); !ok {
				t.Fatalf("verdict w%d-f%d lost across compactions", w, i)
			}
			if _, ok := r.Outcome(fmt.Sprintf("w%d-p%d", w, i), "optimal"); !ok {
				t.Fatalf("outcome w%d-p%d lost across compactions", w, i)
			}
		}
	}
	noCorrupt(t, dir)
}

// TestCompactFlushBeforeSwap pins the window that made
// TestCompactConcurrentWithAppends flaky: a record appended after the
// live-set snapshot and flushed before the generation swap must land on the
// new generation, not on the old one the rename discards.
func TestCompactFlushBeforeSwap(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	s.AppendVerdict("before", true)
	s.compactHook = func(at string) bool {
		if at == stageTmpWritten {
			s.AppendVerdict("during", true)
			if err := s.flush(false); err != nil {
				t.Errorf("flush inside the compaction window: %v", err)
			}
		}
		return false
	}
	if _, err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, "p")
	defer r.Close()
	for _, k := range []string{"before", "during"} {
		if _, ok := r.Verdict(k); !ok {
			t.Errorf("verdict %q lost across the compaction", k)
		}
	}
	noCorrupt(t, dir)
}

// TestCompactCrashRecovery injects a crash at every compaction stage (via the
// compactHook seam, which aborts leaving exactly the on-disk state a kill
// there would) and asserts the store reloads cleanly — full content, no
// .corrupt sideline — from whichever generation survived.
func TestCompactCrashRecovery(t *testing.T) {
	for _, stage := range []string{stageFlushed, stageTmpWritten, stageRenamed} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, "p")
			check := fillT(t, s, 30)
			s.Close()
			duplicateLog(t, dir, 3)

			s = openT(t, dir, "p")
			check(t, s)
			s.compactHook = func(at string) bool { return at == stage }
			if _, err := s.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			// Simulate the kill: abandon the handle without Close (no final
			// flush, no tidy-up), exactly as a crashed process would.
			s.file.Close()

			r := openT(t, dir, "p")
			defer r.Close()
			if r.Stats().ColdStart {
				t.Fatalf("crash at %s: store started cold", stage)
			}
			check(t, r)
			noCorrupt(t, dir)
			if _, err := os.Stat(filepath.Join(dir, tmpName)); err == nil {
				t.Fatalf("crash at %s: stale %s survived reopen", stage, tmpName)
			}
		})
	}
}

// TestCompactStaleTmpStates covers the on-disk states around the rename that
// the hook cannot produce byte-for-byte: a torn half-written .tmp beside an
// intact log, and a completed rename with a stale .tmp from a later
// interrupted compaction.
func TestCompactStaleTmpStates(t *testing.T) {
	t.Run("torn tmp beside intact log", func(t *testing.T) {
		dir := t.TempDir()
		s := openT(t, dir, "p")
		check := fillT(t, s, 20)
		s.Close()
		data, _ := os.ReadFile(filepath.Join(dir, logName))
		if err := os.WriteFile(filepath.Join(dir, tmpName), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openT(t, dir, "p")
		defer r.Close()
		check(t, r)
		noCorrupt(t, dir)
	})
	t.Run("renamed generation with stale tmp", func(t *testing.T) {
		dir := t.TempDir()
		s := openT(t, dir, "p")
		check := fillT(t, s, 20)
		s.Close()
		// The log IS the post-rename new generation; a stale tmp holds
		// arbitrary torn bytes from an interrupted later compaction.
		if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("torn garbage, no header"), 0o644); err != nil {
			t.Fatal(err)
		}
		r := openT(t, dir, "p")
		defer r.Close()
		check(t, r)
		noCorrupt(t, dir)
	})
}

// TestCompactAutoTrigger pins the flusher-side threshold: once the log
// crosses CompactMinBytes with more than CompactGarbageRatio garbage, the
// flusher compacts without any caller intervention.
func TestCompactAutoTrigger(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	check := fillT(t, s, 40)
	s.Close()
	duplicateLog(t, dir, 4)
	before := logSize(t, dir)

	s2, err := Open(dir, Options{
		Params:          "p",
		FlushInterval:   5 * time.Millisecond,
		CompactMinBytes: 1024,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s2.Stats().Compactions >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s2.Stats()
	if st.Compactions < 1 {
		t.Fatalf("auto-compaction never triggered: %+v", st)
	}
	if after := logSize(t, dir); after >= before {
		t.Fatalf("auto-compaction did not shrink log: %d -> %d", before, after)
	}
	check(t, s2)
}

// TestCompactHeaderRecheck pins the pre-rename safety check: if the log on
// disk is no longer a header/params match for this store, compaction must
// refuse to rename over it.
func TestCompactHeaderRecheck(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	fillT(t, s, 5)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Swap the on-disk log for one owned by a different configuration.
	other := t.TempDir()
	o := openT(t, other, "other-params")
	o.AppendVerdict("foreign", true)
	o.Close()
	data, _ := os.ReadFile(filepath.Join(other, logName))
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err == nil || !strings.Contains(err.Error(), "header re-check") {
		t.Fatalf("Compact over foreign log: err = %v, want header re-check failure", err)
	}
	if s.Stats().CompactErrors != 1 {
		t.Fatalf("CompactErrors = %d, want 1", s.Stats().CompactErrors)
	}
	s.file.Close() // abandon; the on-disk state belongs to the foreign store now
}

// TestOutcomeDigest covers the bloom digest surface: membership of every
// solved problem key, a bounded false-positive rate, generation bumps on
// change, and wire-form round-tripping.
func TestOutcomeDigest(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "p")
	defer s.Close()

	enc, gen := s.OutcomeDigest()
	if enc != "" {
		t.Fatalf("empty store digest = %q, want \"\"", enc)
	}
	if d, err := ParseBloomDigest(enc); err != nil || d.Contains("anything") {
		t.Fatalf("empty digest parse = %v, %v", d, err)
	}

	const n = 200
	for i := 0; i < n; i++ {
		s.AppendOutcome(fmt.Sprintf("key-%d", i), "optimal", []byte(`{"proved":true}`))
	}
	enc2, gen2 := s.OutcomeDigest()
	if gen2 <= gen {
		t.Fatalf("digest generation did not advance: %d -> %d", gen, gen2)
	}
	d, err := ParseBloomDigest(enc2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !d.Contains(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("digest missing key-%d (bloom filters cannot have false negatives)", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if d.Contains(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if fp > 200 { // 2%; the design point is ~0.3%
		t.Fatalf("false-positive rate too high: %d/10000", fp)
	}

	// A second method on an existing problem key changes nothing the digest
	// tracks beyond its generation; an unchanged store returns the cached
	// digest and generation.
	enc3, gen3 := s.OutcomeDigest()
	if enc3 != enc2 || gen3 != gen2 {
		t.Fatalf("stable store changed digest: gen %d -> %d", gen2, gen3)
	}

	// The digest survives a reopen (rebuilt from the loaded outcomes).
	s.Close()
	r := openT(t, dir, "p")
	defer r.Close()
	rEnc, _ := r.OutcomeDigest()
	rd, err := ParseBloomDigest(rEnc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !rd.Contains(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("reopened digest missing key-%d", i)
		}
	}
}
