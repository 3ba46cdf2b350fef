package route

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// outcomeDigestFor builds a genuine store digest claiming exactly keys, via a
// throwaway on-disk store (the same path production digests take).
func outcomeDigestFor(t *testing.T, keys ...string) (string, uint64) {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{Params: "p", FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range keys {
		s.AppendOutcome(k, "lfp", []byte(`{"proved":true}`))
	}
	enc, gen := s.OutcomeDigest()
	if enc == "" || gen == 0 {
		t.Fatalf("empty digest for %d keys", len(keys))
	}
	return enc, gen
}

// TestStoreAwareRouting: a problem whose ring owner is cold must be routed to
// the backend whose digest claims its key, and the reorder must be counted.
func TestStoreAwareRouting(t *testing.T) {
	// Find a spec whose ring owner (for two weight-1 backends) is index 1, so
	// a digest claim on index 0 genuinely overrides ring order.
	probe := newRing([]float64{1, 1}, 128)
	spec := ""
	for i := 0; i < 1024; i++ {
		cand := fmt.Sprintf("program P%d() {}", i)
		if seq := probe.sequence(serve.ProblemKey(cand)); seq[0] == 1 {
			spec = cand
			break
		}
	}
	if spec == "" {
		t.Fatal("no probe spec hashed onto backend 1")
	}
	key := serve.ProblemKey(spec)

	digest, gen := outcomeDigestFor(t, key)
	warm := newStubBackend(t, "warm", withDigest(digest, gen))
	cold := newStubBackend(t, "cold")

	r, err := New(Config{
		Backends:       []string{warm.ts.URL, cold.ts.URL},
		StoreAware:     true,
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)

	deadline := time.Now().Add(5 * time.Second)
	for r.backends[0].digestGen.Load() < gen {
		if time.Now().After(deadline) {
			t.Fatal("sweep never fetched the warm backend's digest")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cands := r.candidates(key)
	if cands[0] != 0 {
		t.Fatalf("candidates(%s) = %v, want warm backend (0) first", key[:12], cands)
	}
	if hits := r.ctr[stats.RouterStoreHits].Load(); hits != 1 {
		t.Fatalf("route_store_hits = %d after digest-preferred placement, want 1", hits)
	}

	// An unclaimed key keeps plain ring order and counts nothing.
	other := serve.ProblemKey("program Q() {}")
	want := r.ring.sequence(other)
	got := r.candidates(other)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unclaimed key reordered: got %v want %v", got, want)
		}
	}
	if hits := r.ctr[stats.RouterStoreHits].Load(); hits != 1 {
		t.Fatalf("route_store_hits = %d after unclaimed key, want still 1", hits)
	}

	// End to end: the proxied request lands on the warm backend.
	resp, _ := postVerify(t, ts.URL, spec)
	if id := resp.Header.Get("X-VS3-Backend"); id != "warm" {
		t.Fatalf("store-aware request landed on %q, want warm", id)
	}
}

// TestStoreAwareDisabledKeepsRingOrder pins the default: without StoreAware,
// digests are never fetched and ring order stands.
func TestStoreAwareDisabledKeepsRingOrder(t *testing.T) {
	digest, gen := outcomeDigestFor(t, serve.ProblemKey("program R() {}"))
	warm := newStubBackend(t, "warm", withDigest(digest, gen))
	cold := newStubBackend(t, "cold")
	r, err := New(Config{
		Backends:       []string{warm.ts.URL, cold.ts.URL},
		HealthInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	deadline := time.Now().Add(2 * time.Second)
	for r.backends[0].id() == "" {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached the backends")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := r.backends[0].digestGen.Load(); g != 0 {
		t.Fatalf("digest fetched with StoreAware off (gen %d)", g)
	}
	key := serve.ProblemKey("program R() {}")
	want := r.ring.sequence(key)
	got := r.candidates(key)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order changed with StoreAware off: got %v want %v", got, want)
		}
	}
}
