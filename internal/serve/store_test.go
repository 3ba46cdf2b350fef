package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/stats"
	"repro/internal/store"
)

const storeTestSpec = `
program ArrayInit(array A, n) {
  i := 0;
  while loop (i < n) {
    A[i] := 0;
    i := i + 1;
  }
  assert(forall j. (0 <= j && j < n) => A[j] = 0);
}
template loop: forall j. ?v => A[j] = 0;
predicates v: j >= 0, j < i, j <= i, j < n, j <= n;
`

func openServeStore(t *testing.T, dir string, flush time.Duration) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{
		Params:        core.Config{}.SMT.StoreParams(),
		FlushInterval: flush,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

func postVerify(t *testing.T, base, spec, method string) VerifyResponse {
	t.Helper()
	body, _ := json.Marshal(VerifyRequest{Spec: spec, Method: method})
	resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d", resp.StatusCode)
	}
	var out VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDrainFlushZeroLoss is the drain-durability contract: with the
// write-behind ticker effectively disabled, everything accepted before
// StartDrain must already be durable the moment /healthz flips to 503 —
// a second store opened on the same directory (as a restarted daemon
// would) sees every record without the first ever calling Close.
func TestDrainFlushZeroLoss(t *testing.T) {
	dir := t.TempDir()
	st := openServeStore(t, dir, time.Hour) // ticker never fires during the test
	s := New(Config{Pool: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := postVerify(t, ts.URL, storeTestSpec, "lfp")
	if !out.Proved || out.FromStore {
		t.Fatalf("cold verify: proved=%v from_store=%v", out.Proved, out.FromStore)
	}
	ss := st.Stats()
	if ss.Appended == 0 {
		t.Fatal("verify run appended nothing to the store")
	}
	if ss.QueueDepth == 0 {
		t.Fatal("write-behind queue already empty; test cannot prove drain flushes it")
	}

	s.StartDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}

	// Reopen the directory without closing the first store: only what
	// StartDrain flushed can be visible.
	st2 := openServeStore(t, dir, time.Hour)
	defer st2.Close()
	s2 := st2.Stats()
	if s2.ColdStart {
		t.Fatal("restarted store reported cold start after drain flush")
	}
	if s2.LoadedOutcomes == 0 {
		t.Errorf("restarted store loaded no outcomes (stats: %+v)", s2)
	}
	if s2.LoadedVerdicts+s2.LoadedConsistency+s2.LoadedLemmas == 0 {
		t.Errorf("restarted store loaded no solver records (stats: %+v)", s2)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestWarmRestartOutcomeReplay restarts the serving stack on one store
// directory and asserts the second lifetime replays the solved problem from
// disk: identical verdict, marked from_store, no session leased, zero
// from-scratch SMT queries.
func TestWarmRestartOutcomeReplay(t *testing.T) {
	dir := t.TempDir()

	st := openServeStore(t, dir, 5*time.Millisecond)
	s := New(Config{Pool: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	cold := postVerify(t, ts.URL, storeTestSpec, "lfp")
	ts.Close()
	if !cold.Proved {
		t.Fatal("cold run did not prove")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openServeStore(t, dir, 5*time.Millisecond)
	defer st2.Close()
	s2 := New(Config{Pool: 1, Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	warm := postVerify(t, ts2.URL, storeTestSpec, "lfp")
	if !warm.FromStore {
		t.Error("warm response not marked from_store")
	}
	if warm.Proved != cold.Proved || warm.Steps != cold.Steps {
		t.Errorf("warm outcome diverged: proved=%v steps=%d, cold proved=%v steps=%d",
			warm.Proved, warm.Steps, cold.Proved, cold.Steps)
	}
	for cut, inv := range cold.Invariants {
		if warm.Invariants[cut] != inv {
			t.Errorf("invariant at %s diverged: %q != %q", cut, warm.Invariants[cut], inv)
		}
	}
	sr := s2.values()
	if sr[stats.StoreOutcomeHits] != 1 {
		t.Errorf("store_outcome_hits = %v, want 1", sr[stats.StoreOutcomeHits])
	}
	if sr[stats.Queries]+sr[stats.AssumptionProbes] != 0 {
		t.Errorf("warm lifetime ran %v SMT queries/probes, want 0", sr[stats.Queries]+sr[stats.AssumptionProbes])
	}
	if sr[stats.InFlight] != 0 || sr[stats.Requests] != 1 {
		t.Errorf("request accounting off: in_flight=%v requests=%v", sr[stats.InFlight], sr[stats.Requests])
	}

	// The normalized method key must hit regardless of request spelling.
	alias := postVerify(t, ts2.URL, storeTestSpec, "LFP")
	if !alias.FromStore {
		t.Error("method alias LFP missed the outcome cache")
	}
}

// TestReplayReportsOwnNumbers: an outcome-replayed response reports the
// replay's own wall time and (empty) stats delta, over HTTP and over the
// VS3R handler alike; the stored run's duration moves to
// original_duration_ms.
func TestReplayReportsOwnNumbers(t *testing.T) {
	cold, s2, url := coldThenWarm(t)
	var viaRPC VerifyResponse
	r := s2.ServeRPC(context.Background(), rpc.Request{Kind: rpc.KindVerify, Spec: storeTestSpec, Method: "lfp"})
	if r.Status != http.StatusOK {
		t.Fatalf("rpc replay: status %d: %s", r.Status, r.Body)
	}
	if err := json.Unmarshal(r.Body, &viaRPC); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]VerifyResponse{
		"http": postVerify(t, url, storeTestSpec, "lfp"),
		"rpc":  viaRPC,
	} {
		if !got.FromStore {
			t.Errorf("%s: replay not marked from_store", name)
		}
		if got.OriginalDurationMS != cold.DurationMS {
			t.Errorf("%s: original_duration_ms = %v, want the stored run's %v", name, got.OriginalDurationMS, cold.DurationMS)
		}
		if !(got.DurationMS < got.OriginalDurationMS) {
			t.Errorf("%s: duration_ms %v not below original_duration_ms %v", name, got.DurationMS, got.OriginalDurationMS)
		}
		if got.Stats != (stats.Snapshot{}) {
			t.Errorf("%s: replay reports stats %+v, want its own empty delta", name, got.Stats)
		}
	}
}

// coldThenWarm solves storeTestSpec with LFP on a fresh store, then starts
// a second serving lifetime on the reopened store and returns it.
func coldThenWarm(t *testing.T) (cold VerifyResponse, warm *Server, url string) {
	t.Helper()
	dir := t.TempDir()
	st := openServeStore(t, dir, 5*time.Millisecond)
	s := New(Config{Pool: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	cold = postVerify(t, ts.URL, storeTestSpec, "lfp")
	ts.Close()
	if cold.FromStore || cold.OriginalDurationMS != 0 || cold.Stats.Queries == 0 {
		t.Fatalf("cold run: from_store=%v original_duration_ms=%v queries=%d",
			cold.FromStore, cold.OriginalDurationMS, cold.Stats.Queries)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := openServeStore(t, dir, 5*time.Millisecond)
	t.Cleanup(func() { st2.Close() })
	warm = New(Config{Pool: 1, Store: st2})
	ts2 := httptest.NewServer(warm.Handler())
	t.Cleanup(ts2.Close)
	return cold, warm, ts2.URL
}

// TestSearchCounters: a problem whose outcome the store does not hold (the
// same spec with a trailing newline has another problem key) runs the
// engine, whose group searches replay from the store; /v1/stats and
// /metrics report the loaded records and the hits.
func TestSearchCounters(t *testing.T) {
	cold, s2, url := coldThenWarm(t)
	warm := postVerify(t, url, storeTestSpec+"\n", "lfp")
	if warm.FromStore || warm.Proved != cold.Proved {
		t.Fatalf("respelled spec: from_store=%v proved=%v, want false and %v", warm.FromStore, warm.Proved, cold.Proved)
	}
	sr := s2.values()
	if sr[stats.StoreLoadedSearches] == 0 || sr[stats.SearchHits] == 0 || sr[stats.SearchRejects] != 0 {
		t.Errorf("store_loaded_searches=%v search_hits=%v search_rejects=%v, want >0, >0, 0",
			sr[stats.StoreLoadedSearches], sr[stats.SearchHits], sr[stats.SearchRejects])
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, name := range []string{"vs3d_store_loaded_searches", "vs3d_search_hits_total", "vs3d_search_rejects_total"} {
		if !bytes.Contains(body, []byte(name)) {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// TestAbortedOutcomesNotPersisted asserts a deadline-aborted run leaves no
// outcome record: a later identical request must run for real, not replay a
// "gave up" verdict.
func TestAbortedOutcomesNotPersisted(t *testing.T) {
	dir := t.TempDir()
	st := openServeStore(t, dir, 5*time.Millisecond)
	s := New(Config{Pool: 1, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(VerifyRequest{Spec: storeTestSpec, Method: "lfp", TimeoutMS: 1})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := st.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	key := ProblemKey(storeTestSpec)
	if _, ok := st.Outcome(key, "LFP"); ok && resp.StatusCode == http.StatusGatewayTimeout {
		t.Error("aborted run persisted an outcome")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
