package main

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// skipUnlessFleetBench skips a wall-clock fleet gate unless its Make target
// opted in with VS3_FLEET_BENCH=1: the gate compares latencies or placements
// that mean nothing while the rest of the suite competes for the same cores.
func skipUnlessFleetBench(t *testing.T, target string) {
	t.Helper()
	if os.Getenv("VS3_FLEET_BENCH") != "1" {
		t.Skipf("wall-clock fleet benchmark; run via make %s", target)
	}
}

// loadArm runs corpus against base over the given transport and fails the
// test on any wrong verdict or transport error.
func loadArm(t *testing.T, base, proto string, corpus []load.Item, requests int) load.Result {
	t.Helper()
	res, err := load.Run(context.Background(), load.Options{
		BaseURL:     base,
		Corpus:      corpus,
		Concurrency: 4,
		Requests:    requests,
		Proto:       proto,
		ClientKey:   "bench",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incorrect != 0 || res.Errors != 0 || res.Aborted != 0 || res.Shed != 0 {
		t.Fatalf("arm %s (%s) degraded: %+v", base, proto, res)
	}
	return res
}

// TestRPCBench is `make bench-rpc`: hedged vs unhedged routing over real
// TCP daemons. A store-backed fleet with one artificially stalled backend is
// driven through an unhedged and a hedged router; hedging must cap the
// stalled owner's tail (lower p99) with identical verdicts.
//
// The gate is a wall-clock comparison — meaningless when the rest of the
// suite is competing for the same cores — so the test only runs in its
// dedicated `make bench-rpc` invocation (VS3_FLEET_BENCH=1) and skips under
// `go test ./...`.
func TestRPCBench(t *testing.T) {
	if testing.Short() {
		t.Skip("rpc benchmark is not a -short test")
	}
	skipUnlessFleetBench(t, "bench-rpc")
	corpus := load.DefaultCorpus()

	// Both backends carry a store, warmed directly below on the whole
	// corpus (the stall wraps only the rpc dispatch, so the direct HTTP
	// warmup is fast): a hedge fired at the ring successor then replays
	// instantly instead of recomputing a problem only the owner has warm,
	// so the arms compare hedging policy, not engine load.
	stall := &delayRPC{delay: 400 * time.Millisecond}
	bSlow := startBackend(t, serve.Config{ID: "bench-stalled", Store: openStore(t, t.TempDir())}, func(h rpc.Handler) rpc.Handler { stall.inner = h; return stall })
	bOK := startBackend(t, serve.Config{ID: "bench-ok", Store: openStore(t, t.TempDir())}, nil)
	degraded := []string{bSlow.hts.URL, bOK.hts.URL}
	unhedgedBase, _, unhedgedStop := startRouter(t, route.Config{Backends: degraded})
	defer unhedgedStop()
	hedgedBase, _, hedgedStop := startRouter(t, route.Config{
		Backends: degraded,
		Hedge:    true,
		HedgeMin: 5 * time.Millisecond,
		HedgeMax: 25 * time.Millisecond,
	})
	defer hedgedStop()

	// Warm both stores on the whole corpus, hitting each backend directly
	// so the successor holds every owner's outcomes too.
	loadArm(t, bSlow.hts.URL, "http", corpus, len(corpus))
	loadArm(t, bOK.hts.URL, "http", corpus, len(corpus))
	unhedged := loadArm(t, unhedgedBase, "http", corpus, 2*len(corpus))
	hedged := loadArm(t, hedgedBase, "http", corpus, 2*len(corpus))
	hedgeStats := fetchRouterStats(t, hedgedBase)
	t.Logf("unhedged: p99=%.1f ms; hedged: p99=%.1f ms (fired=%d won=%d)", unhedged.P99MS, hedged.P99MS, hedgeStats.HedgeFired, hedgeStats.HedgeWon)

	if hedged.P99MS >= unhedged.P99MS {
		t.Errorf("hedged p99 %.1fms not below unhedged %.1fms", hedged.P99MS, unhedged.P99MS)
	}
	if hedgeStats.HedgeWon == 0 {
		t.Error("hedged arm never won a race against the stalled owner")
	}
}
