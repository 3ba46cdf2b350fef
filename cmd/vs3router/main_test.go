package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/store"
)

// testBackend is one real engine backend as `vs3d` boots it: the HTTP
// surface plus an advertised binary rpc listener, assembled in-process so a
// test can wrap the rpc handler and read its gauges.
type testBackend struct {
	t     *testing.T
	srv   *serve.Server
	hts   *httptest.Server
	rsrv  *rpc.Server
	rpcLn net.Listener
	store *store.Store
}

// startBackend boots a backend (default Pool 2). wrap, when non-nil, wraps
// the rpc handler. The backend stops at test cleanup if not stopped before.
func startBackend(t *testing.T, cfg serve.Config, wrap func(rpc.Handler) rpc.Handler) *testBackend {
	t.Helper()
	if cfg.Pool == 0 {
		cfg.Pool = 2
	}
	b := &testBackend{t: t, srv: serve.New(cfg), store: cfg.Store}
	b.hts = httptest.NewServer(b.srv.Handler())
	var h rpc.Handler = b.srv
	if wrap != nil {
		h = wrap(h)
	}
	var err error
	if b.rpcLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	b.rsrv = rpc.NewServer(h, rpc.ServerConfig{})
	go func() { _ = b.rsrv.Serve(b.rpcLn) }()
	b.srv.AdvertiseRPC(b.rpcLn.Addr().String())
	b.srv.SetRPCStats(b.rsrv.Stats)
	t.Cleanup(b.stop)
	return b
}

// stop kills both surfaces, then closes the backend's store (flushing the
// write-behind queue, as a drained daemon would). Safe to call twice.
func (b *testBackend) stop() {
	b.hts.CloseClientConnections()
	b.hts.Close()
	b.rpcLn.Close()
	b.rsrv.Close()
	if err := b.store.Close(); err != nil {
		b.t.Errorf("store.Close: %v", err)
	}
}

// openStore opens the knowledge store in dir for one backend; the
// backend's stop closes it.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Params: serve.Config{}.Core.SMT.StoreParams(), Logf: t.Logf})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// startRouter boots the real vs3router daemon (the same run() main drives)
// on an ephemeral port and returns its base URL plus a shutdown func. A
// binary rpc front listener is always served alongside, the way
// `vs3router -rpc :0` would.
func startRouter(t *testing.T, cfg route.Config) (string, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rpcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, ln, rpcLn, cfg, log.New(io.Discard, "", 0)) }()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("router exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("router did not shut down")
		}
	}
	return base, rpcLn.Addr().String(), stop
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func verifyVia(t *testing.T, base, spec, method string) (*http.Response, serve.VerifyResponse) {
	t.Helper()
	body, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: method})
	resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr serve.VerifyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, vr
}

// TestClusterSmoke is `make cluster-smoke`: the real router daemon over TCP
// in front of two real engine backends — affinity, batch split/merge,
// failover after a backend death, stats, and clean shutdown.
func TestClusterSmoke(t *testing.T) {
	b1 := startBackend(t, serve.Config{ID: "smoke-1"}, nil)
	b2 := startBackend(t, serve.Config{ID: "smoke-2"}, nil)
	base, _, stop := startRouter(t, route.Config{Backends: []string{b1.hts.URL, b2.hts.URL}})
	defer stop()

	corpus := load.SmokeCorpus()

	// Affinity: repeats of the same spec land on the same backend, and the
	// backend proves it (second hit warm).
	owners := map[string]string{}
	for round := 0; round < 2; round++ {
		for _, item := range corpus {
			resp, vr := verifyVia(t, base, item.Spec, item.Method)
			if resp.StatusCode != http.StatusOK || !vr.Proved {
				t.Fatalf("%s: status=%d proved=%v", item.Name, resp.StatusCode, vr.Proved)
			}
			backend := resp.Header.Get("X-VS3-Backend")
			if backend == "" {
				t.Fatal("no X-VS3-Backend header through the router")
			}
			if prev, ok := owners[item.Name]; ok && prev != backend {
				t.Fatalf("%s routed to %s then %s — affinity broken", item.Name, prev, backend)
			}
			owners[item.Name] = backend
			if k := resp.Header.Get("X-VS3-Problem-Key"); k != serve.ProblemKey(item.Spec) {
				t.Errorf("%s: problem key %q", item.Name, k)
			}
		}
	}

	// Batch through the router: every index answered OK exactly once.
	var items []serve.VerifyRequest
	for _, it := range corpus {
		items = append(items, serve.VerifyRequest{Spec: it.Spec, Method: it.Method})
		items = append(items, serve.VerifyRequest{Spec: it.Spec, Method: "gfp"})
	}
	body, _ := json.Marshal(serve.BatchRequest{Items: items})
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var res serve.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		if seen[res.Index] || !res.OK || res.Verify == nil || !res.Verify.Proved {
			t.Fatalf("batch item %d: %+v", res.Index, res)
		}
		seen[res.Index] = true
	}
	resp.Body.Close()
	if len(seen) != len(items) {
		t.Fatalf("batch answered %d of %d items", len(seen), len(items))
	}

	// Failover: kill one backend; every spec must still verify (rehashed to
	// the survivor) with no client-visible error.
	b1.stop()
	for _, item := range corpus {
		resp, vr := verifyVia(t, base, item.Spec, item.Method)
		if resp.StatusCode != http.StatusOK || !vr.Proved {
			t.Fatalf("%s after backend death: status=%d proved=%v", item.Name, resp.StatusCode, vr.Proved)
		}
		if got := resp.Header.Get("X-VS3-Backend"); got != "smoke-2" {
			t.Fatalf("%s served by %q after smoke-1 died", item.Name, got)
		}
	}

	// Router stats: per-backend rows with identity, and the health sweep
	// (or passive failover marking) takes the dead backend out of rotation.
	var stats struct {
		Requests  int64 `json:"requests_proxied"`
		Failovers int64 `json:"failovers"`
		Backends  []struct {
			ServerID string `json:"server_id"`
			Healthy  bool   `json:"healthy"`
			Routed   int64  `json:"routed"`
		} `json:"backends"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sresp, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		stats.Backends = nil
		if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		alive := 0
		for _, b := range stats.Backends {
			if b.Healthy {
				alive++
			}
		}
		if alive == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead backend never left rotation: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stats.Requests == 0 || len(stats.Backends) != 2 {
		t.Fatalf("router stats: %+v", stats)
	}
}

// benchArm runs the default corpus against base and returns the report.
func benchArm(t *testing.T, base string, requests int) load.Result {
	t.Helper()
	res, err := load.Run(context.Background(), load.Options{
		BaseURL:     base,
		Concurrency: 4,
		Requests:    requests,
		ClientKey:   "bench",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incorrect != 0 || res.Errors != 0 || res.Aborted != 0 || res.Shed != 0 {
		t.Fatalf("arm %s degraded: %+v", base, res)
	}
	return res
}

// TestClusterBench is `make bench-cluster`: the head-to-head routing gate.
// Three arms over the same mixed corpus — one backend alone,
// two backends behind affinity routing, two behind random routing — and the
// claim under test is that affinity keeps the fleet warm: fewer from-scratch
// SMT queries and a higher cache-hit ratio than random routing, with
// verdicts identical everywhere.
func TestClusterBench(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster benchmark is not a -short test")
	}
	requests := 3 * len(load.DefaultCorpus())

	// Every backend runs one session (Pool 1), as vs3perf's fleet does: with
	// more, which session's solver serves a repeated problem depends on
	// scheduling, and so does each arm's query count. Random placement draws
	// from a fixed-seed source (route.New), so each arm's count depends on
	// its placement alone.
	//
	// Arm 1: single node, no router — the verdict baseline.
	single := startBackend(t, serve.Config{ID: "bench-single", Pool: 1}, nil)
	one := benchArm(t, single.hts.URL, requests)

	// Arm 2: two fresh backends behind affinity routing.
	a1, a2 := startBackend(t, serve.Config{ID: "bench-aff-1", Pool: 1}, nil), startBackend(t, serve.Config{ID: "bench-aff-2", Pool: 1}, nil)
	affBase, _, affStop := startRouter(t, route.Config{
		Backends: []string{a1.hts.URL, a2.hts.URL}, Policy: route.Affinity,
	})
	aff := benchArm(t, affBase, requests)
	affStop()

	// Arm 3: two fresh backends behind random routing — the control.
	r1, r2 := startBackend(t, serve.Config{ID: "bench-rand-1", Pool: 1}, nil), startBackend(t, serve.Config{ID: "bench-rand-2", Pool: 1}, nil)
	randBase, _, randStop := startRouter(t, route.Config{
		Backends: []string{r1.hts.URL, r2.hts.URL}, Policy: route.Random,
	})
	rnd := benchArm(t, randBase, requests)
	randStop()

	t.Logf("single:   %d queries, hit ratio %.3f, p95 %.1fms", one.SMTQueries, one.CacheHitRatio, one.P95MS)
	t.Logf("affinity: %d queries, hit ratio %.3f, p95 %.1fms", aff.SMTQueries, aff.CacheHitRatio, aff.P95MS)
	t.Logf("random:   %d queries, hit ratio %.3f, p95 %.1fms", rnd.SMTQueries, rnd.CacheHitRatio, rnd.P95MS)

	if aff.SMTQueries >= rnd.SMTQueries {
		t.Errorf("affinity made %d from-scratch queries, random %d — affinity should be strictly cheaper",
			aff.SMTQueries, rnd.SMTQueries)
	}
	if aff.CacheHitRatio <= rnd.CacheHitRatio {
		t.Errorf("affinity hit ratio %.3f not above random %.3f", aff.CacheHitRatio, rnd.CacheHitRatio)
	}
}
