package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
)

// delayRPC stalls every rpc dispatch, emulating a deeply queued backend. A
// cancel during the stall is counted and answered 499 without touching the
// engine.
type delayRPC struct {
	inner    rpc.Handler
	delay    time.Duration
	canceled atomic.Int64
}

func (d *delayRPC) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		d.canceled.Add(1)
		return rpc.Response{Status: 499, Body: []byte("{\"error\":\"canceled before start\"}\n")}
	}
	return d.inner.ServeRPC(ctx, req)
}

// routerStats is the slice of the router's /v1/stats body the smoke test
// reads.
type routerStats struct {
	HedgeFired int64 `json:"hedge_fired"`
	HedgeWon   int64 `json:"hedge_won"`
	RPCConns   int64 `json:"rpc_conns"`
	Backends   []struct {
		URL   string `json:"url"`
		Proto string `json:"proto"`
	} `json:"backends"`
}

func fetchRouterStats(t *testing.T, base string) routerStats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st routerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitProto blocks until the router reports the wanted transport for every
// listed backend (the health sweep has to discover X-VS3-RPC first).
func waitProto(t *testing.T, base string, want map[string]string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := fetchRouterStats(t, base)
		ok := true
		for _, b := range st.Backends {
			if w, listed := want[b.URL]; listed && b.Proto != w {
				ok = false
			}
		}
		if ok && len(st.Backends) == len(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never reached wanted protos %v: %+v", want, st.Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func callVerify(t *testing.T, c *rpc.Client, spec, method string) (rpc.Response, serve.VerifyResponse) {
	t.Helper()
	resp, err := c.Call(context.Background(), rpc.Request{Kind: rpc.KindVerify, Method: method, Spec: spec})
	if err != nil {
		t.Fatalf("rpc call: %v", err)
	}
	var vr serve.VerifyResponse
	if resp.Status == http.StatusOK {
		if err := json.Unmarshal(resp.Body, &vr); err != nil {
			t.Fatalf("decoding %q: %v", resp.Body, err)
		}
	}
	return resp, vr
}

// TestRPCSmoke is `make rpc-smoke`: the binary transport end to end over
// real TCP daemons — single verifies through the router's rpc front, batch
// fan-out over rpc backends, no traffic for a backend that does not
// advertise rpc, mid-flight cancellation reaching the backend, and hedging
// with counters on /metrics.
func TestRPCSmoke(t *testing.T) {
	corpus := load.SmokeCorpus()

	// --- Fleet 1: two rpc backends + one HTTP-only backend. ---
	b1 := startBackend(t, serve.Config{ID: "rpc-1"}, nil)
	b2 := startBackend(t, serve.Config{ID: "rpc-2"}, nil)
	b3 := httptest.NewServer(serve.New(serve.Config{ID: "http-only", Pool: 1}).Handler())
	defer b3.Close()
	base, rpcBase, stop := startRouter(t, route.Config{Backends: []string{b1.hts.URL, b2.hts.URL, b3.URL}})
	defer stop()
	waitProto(t, base, map[string]string{b1.hts.URL: "rpc", b2.hts.URL: "rpc", b3.URL: "none"})

	c := rpc.NewClient(rpcBase, rpc.ClientConfig{})
	defer c.Close()

	// Single verifies over the binary front: correct verdicts, problem keys,
	// and a backend identity on every response.
	for _, item := range corpus {
		resp, vr := callVerify(t, c, item.Spec, item.Method)
		if resp.Status != http.StatusOK || !vr.Proved {
			t.Fatalf("%s over rpc: status=%d proved=%v body=%s", item.Name, resp.Status, vr.Proved, resp.Body)
		}
		if resp.ProblemKey != serve.ProblemKey(item.Spec) {
			t.Fatalf("%s: problem key %q", item.Name, resp.ProblemKey)
		}
		if resp.Backend == "" {
			t.Fatalf("%s: no backend identity on the rpc response", item.Name)
		}
	}

	// No traffic for the backend that advertises no rpc endpoint: it owns a
	// third of the ring, yet spec variants (trailing newlines vary the
	// problem key) all verify on the rpc backends.
	spec := corpus[0].Spec
	for i := 0; i < 16; i++ {
		resp, vr := callVerify(t, c, spec, "lfp")
		if resp.Status != http.StatusOK || !vr.Proved || resp.Backend == "http-only" {
			t.Fatalf("probe %d: status=%d proved=%v backend=%s", i, resp.Status, vr.Proved, resp.Backend)
		}
		spec = corpus[0].Spec + strings.Repeat("\n", i+1)
	}

	// Batch through the router's HTTP front: every item travels over rpc.
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
	if st := fetchRouterStats(t, base); st.RPCConns == 0 {
		t.Error("router reports zero open rpc connections after rpc traffic")
	}
	var b3Stats struct {
		Requests int64 `json:"requests"`
	}
	sresp, err := http.Get(b3.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&b3Stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if b3Stats.Requests != 0 {
		t.Errorf("backend without rpc served %d requests", b3Stats.Requests)
	}

	// --- Fleet 2: cancellation. A client abandoning its stream must reach
	// the stalled backend as a context cancel, leaving no open stream. ---
	slow := &delayRPC{delay: 30 * time.Second}
	bSlow := startBackend(t, serve.Config{ID: "stalled"}, func(h rpc.Handler) rpc.Handler { slow.inner = h; return slow })
	cbase, crpc, cstop := startRouter(t, route.Config{Backends: []string{bSlow.hts.URL}})
	defer cstop()
	waitProto(t, cbase, map[string]string{bSlow.hts.URL: "rpc"})

	cc := rpc.NewClient(crpc, rpc.ClientConfig{})
	defer cc.Close()
	cctx, ccancel := context.WithCancel(context.Background())
	callErr := make(chan error, 1)
	go func() {
		_, err := cc.Call(cctx, rpc.Request{Kind: rpc.KindVerify, Method: "lfp", Spec: corpus[0].Spec})
		callErr <- err
	}()
	time.Sleep(100 * time.Millisecond)
	ccancel()
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("cancelled rpc call returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled rpc call never returned")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, streams, _, _ := bSlow.rsrv.Stats()
		if slow.canceled.Load() >= 1 && streams == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never drained the backend: canceled=%d streams=%d", slow.canceled.Load(), streams)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// --- Fleet 3: hedging. With the owner stalled, the ring successor must
	// answer and the counters must show the race. ---
	slow2 := &delayRPC{delay: 5 * time.Second}
	bSlow2 := startBackend(t, serve.Config{ID: "hedge-slow"}, func(h rpc.Handler) rpc.Handler { slow2.inner = h; return slow2 })
	bFast := startBackend(t, serve.Config{ID: "hedge-fast"}, nil)
	hbase, _, hstop := startRouter(t, route.Config{
		Backends: []string{bSlow2.hts.URL, bFast.hts.URL},
		Hedge:    true,
		HedgeMin: 5 * time.Millisecond,
		HedgeMax: 50 * time.Millisecond,
	})
	defer hstop()
	waitProto(t, hbase, map[string]string{bSlow2.hts.URL: "rpc", bFast.hts.URL: "rpc"})

	hedged := false
	spec = corpus[1].Spec
	for i := 0; i < 50 && !hedged; i++ {
		vb, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: "lfp", TimeoutMS: 30_000})
		hresp, err := http.Post(hbase+"/v1/verify", "application/json", bytes.NewReader(vb))
		if err != nil {
			t.Fatal(err)
		}
		var vr serve.VerifyResponse
		if err := json.NewDecoder(hresp.Body).Decode(&vr); err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK || !vr.Proved {
			t.Fatalf("hedge probe %d: status=%d proved=%v", i, hresp.StatusCode, vr.Proved)
		}
		st := fetchRouterStats(t, hbase)
		if st.HedgeWon >= 1 {
			if got := hresp.Header.Get("X-VS3-Backend"); got != "hedge-fast" {
				t.Fatalf("hedged winner was %q, want hedge-fast", got)
			}
			hedged = true
		}
		spec = corpus[1].Spec + strings.Repeat("\n", i+1)
	}
	if !hedged {
		t.Fatal("no probe ever hedged onto the fast backend")
	}
	mresp, err := http.Get(hbase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbuf := new(bytes.Buffer)
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"vs3router_hedge_fired_total", "vs3router_hedge_won_total", "vs3router_rpc_conns"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestLoadProtoRPC drives the load harness in -proto rpc mode against a
// single rpc-advertising backend: discovery via X-VS3-RPC, all verdicts
// correct over the binary transport, stats deltas still read over HTTP.
func TestLoadProtoRPC(t *testing.T) {
	b := startBackend(t, serve.Config{ID: "load-rpc"}, nil)
	res, err := load.Run(context.Background(), load.Options{
		BaseURL:     b.hts.URL,
		Corpus:      load.SmokeCorpus(),
		Concurrency: 2,
		Requests:    8,
		Proto:       "rpc",
		ClientKey:   "rpc-smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 8 || res.Incorrect != 0 || res.Errors != 0 {
		t.Fatalf("rpc load run: %+v", res)
	}
	if res.SMTQueries+res.SMTCacheHits == 0 {
		t.Error("stats probe over HTTP saw no SMT activity from the rpc run")
	}
}
