package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestWarmRestart drives the real daemon through a full lifecycle twice on
// one knowledge-store directory: boot, solve, SIGTERM-style drain, then boot
// again and assert the second lifetime answers the same problem from the
// store — warm-loaded, replayed outcome, zero from-scratch SMT queries.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	spec := `
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

	lifetime := func() (serve.VerifyResponse, bool, int64) {
		st, err := store.Open(dir, store.Options{
			Params: serve.Config{}.Core.SMT.StoreParams(),
			Logf:   t.Logf,
		})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rpcLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + ln.Addr().String()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		cfg := serve.Config{Pool: 2, MaxTimeout: 30 * time.Second, Store: st}
		go func() { done <- run(ctx, ln, rpcLn, cfg, log.New(io.Discard, "", 0)) }()
		waitHealthy(t, base)

		body, _ := json.Marshal(map[string]any{"spec": spec, "method": "lfp"})
		resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out serve.VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify: status %d", resp.StatusCode)
		}

		sresp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			StoreColdStart   bool  `json:"store_cold_start"`
			Queries          int64 `json:"smt_queries"`
			AssumptionProbes int64 `json:"assumption_probes"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()

		cancel() // SIGTERM path: drain, close store, exit
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
		return out, stats.StoreColdStart, stats.Queries + stats.AssumptionProbes
	}

	cold, coldStart, coldWork := lifetime()
	if !cold.Proved || cold.FromStore {
		t.Fatalf("first lifetime: proved=%v from_store=%v", cold.Proved, cold.FromStore)
	}
	if !coldStart {
		t.Error("first lifetime did not report a cold store")
	}
	if coldWork == 0 {
		t.Fatal("first lifetime ran zero SMT queries/probes")
	}

	warm, warmStart, warmWork := lifetime()
	if warmStart {
		t.Error("second lifetime reported a cold store")
	}
	if !warm.FromStore {
		t.Error("second lifetime did not replay the outcome from the store")
	}
	if warm.Proved != cold.Proved || warm.Steps != cold.Steps {
		t.Errorf("restart changed the outcome: proved %v→%v steps %d→%d",
			cold.Proved, warm.Proved, cold.Steps, warm.Steps)
	}
	if warmWork != 0 {
		t.Errorf("second lifetime ran %d SMT queries/probes, want 0", warmWork)
	}
}
