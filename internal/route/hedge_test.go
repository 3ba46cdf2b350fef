package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/stats"
)

// hedgeSpec is the paper's running example — small enough to verify in well
// under a second on a cold engine.
const hedgeSpec = `
program ArrayInit(array A, n) {
  i := 0;
  while loop (i < n) {
    A[i] := 0;
    i := i + 1;
  }
  assert(forall j. (0 <= j && j < n) => A[j] = 0);
}
template loop: forall j. ?v => A[j] = 0;
predicates v: j < 0, j <= 0, j > 0, j >= 0, j < i, j <= i, j > i, j >= i, j < n, j <= n, j > n, j >= n;
`

// slowRPC delays a backend's rpc dispatch, emulating a node whose queue is
// deep: the work has not started when the hedge delay elapses. A cancel
// arriving during the delay is counted and answered 499 without touching
// the engine — exactly what a cancelled queued request does.
type slowRPC struct {
	inner    rpc.Handler
	delay    time.Duration
	canceled atomic.Int64
}

func (s *slowRPC) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		s.canceled.Add(1)
		return rpc.Response{Status: 499, Body: []byte("{\"error\":\"canceled before start\"}\n")}
	}
	return s.inner.ServeRPC(ctx, req)
}

// serveBackend is one real vs3d-equivalent: a serve.Server with both its
// HTTP surface and an advertised binary rpc listener.
type serveBackend struct {
	srv  *serve.Server
	hts  *httptest.Server
	rsrv *rpc.Server
}

func startServeBackend(t *testing.T, id string, wrap func(rpc.Handler) rpc.Handler) *serveBackend {
	t.Helper()
	srv := serve.New(serve.Config{ID: id, Pool: 2})
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)
	var h rpc.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rsrv := rpc.NewServer(h, rpc.ServerConfig{})
	go func() { _ = rsrv.Serve(ln) }()
	t.Cleanup(func() { ln.Close(); rsrv.Close() })
	srv.AdvertiseRPC(ln.Addr().String())
	srv.SetRPCStats(rsrv.Stats)
	return &serveBackend{srv: srv, hts: hts, rsrv: rsrv}
}

// TestHedgeCancelsLoserSingleCount proves the hedging contract end to end
// over real backends speaking binary rpc: when the owner stalls, the hedge
// fires at the ring successor, the successor's verdict is the only one
// forwarded and counted, the stalled loser is cancelled (its handler sees
// ctx.Done), and no session lease or rpc stream leaks on either backend.
func TestHedgeCancelsLoserSingleCount(t *testing.T) {
	slow := &slowRPC{delay: 2 * time.Second}
	wrapSlow := func(h rpc.Handler) rpc.Handler { slow.inner = h; return slow }
	bSlow := startServeBackend(t, "slow-backend", wrapSlow)
	bFast := startServeBackend(t, "fast-backend", nil)

	cfg := Config{
		Backends:       []string{bSlow.hts.URL, bFast.hts.URL},
		Hedge:          true,
		HedgeMin:       5 * time.Millisecond,
		HedgeMax:       50 * time.Millisecond,
		HealthInterval: 25 * time.Millisecond,
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)

	// New's first health sweep is synchronous: both backends are live over
	// rpc as soon as it returns.
	for _, b := range r.backends {
		if !b.healthy.Load() || b.rpcClient().OpenConns() == 0 {
			t.Fatalf("backend %s not live over rpc after New", b.url)
		}
	}

	// Find a spec variant owned by the slow backend (trailing newlines change
	// the problem key, not the problem).
	spec := hedgeSpec
	for i := 0; r.Owner(serve.ProblemKey(spec)) != bSlow.hts.URL; i++ {
		if i > 10_000 {
			t.Fatal("no spec variant owned by the slow backend")
		}
		spec = hedgeSpec + strings.Repeat("\n", i+1)
	}

	body, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: "lfp", TimeoutMS: 30_000})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged verify: status %d: %s", resp.StatusCode, raw.Bytes())
	}
	var vr serve.VerifyResponse
	if err := json.Unmarshal(raw.Bytes(), &vr); err != nil {
		t.Fatalf("decoding %q: %v", raw.Bytes(), err)
	}
	if !vr.Proved || vr.Aborted {
		t.Fatalf("hedged verify returned %+v, want proved", vr)
	}
	if got := resp.Header.Get("X-VS3-Backend"); got != "fast-backend" {
		t.Fatalf("winner was %q, want the hedge (fast-backend)", got)
	}

	fired, won, canceled := r.ctr[stats.RouterHedgeFired].Load(), r.ctr[stats.RouterHedgeWon].Load(), r.ctr[stats.RouterHedgeCanceled].Load()
	if fired < 1 || won < 1 || canceled < 1 {
		t.Fatalf("hedge counters fired=%d won=%d canceled=%d, want all ≥ 1", fired, won, canceled)
	}
	// Strict single-count: exactly one verdict forwarded, exactly one routed
	// increment across the fleet — the loser contributes nothing.
	if total := r.backends[0].ctr[stats.BackendRouted].Load() + r.backends[1].ctr[stats.BackendRouted].Load(); total != 1 {
		t.Fatalf("routed total = %d after one request, want 1", total)
	}

	// The loser must actually observe its cancellation and drain: handler saw
	// ctx.Done, no rpc stream stays open, no session lease stays held.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, slowStreams, _, _ := bSlow.rsrv.Stats()
		slowOK := slow.canceled.Load() >= 1 && slowStreams == 0
		fastOK := inFlight(t, bFast.hts.URL) == 0
		if slowOK && fastOK && inFlight(t, bSlow.hts.URL) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loser never drained: canceled=%d streams=%d", slow.canceled.Load(), slowStreams)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The hedge counters must also be visible on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbuf := new(bytes.Buffer)
	_, _ = mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"vs3router_hedge_fired_total", "vs3router_hedge_won_total", "vs3router_hedge_canceled_total", "vs3router_rpc_conns"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// inFlight reads a backend's in_flight gauge over its HTTP stats surface.
func inFlight(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		InFlight int64 `json:"in_flight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.InFlight
}

// TestBackendWithoutRPCGetsNoTraffic: requests travel only over VS3R, so a
// backend that advertises no rpc endpoint, or whose advertised endpoint
// refuses the handshake, is not live — it shows healthy:false and every
// key lands on the one backend that speaks rpc.
func TestBackendWithoutRPCGetsNoTraffic(t *testing.T) {
	// An HTTP server posing as the rpc endpoint: the handshake is refused.
	notRPC := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	t.Cleanup(notRPC.Close)
	good := newStubBackend(t, "rpc")
	silent := newStubBackend(t, "no-rpc", advertising(""))
	refusing := newStubBackend(t, "refuses", advertising(strings.TrimPrefix(notRPC.URL, "http://")))
	_, ts := newTestRouter(t, Config{HealthInterval: time.Hour}, good, silent, refusing)

	for i := 0; i < 32; i++ {
		resp, body := postVerify(t, ts.URL, fmt.Sprintf("program N%d() { skip; }", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-VS3-Backend"); got != "rpc" {
			t.Fatalf("request served by %q, want the rpc backend", got)
		}
	}
	if n := silent.served.Load() + refusing.served.Load(); n != 0 {
		t.Fatalf("backends without a working rpc endpoint served %d requests", n)
	}
	for _, row := range routerStats(t, ts.URL).Backends {
		if want := row.URL == good.ts.URL; row.Healthy != want {
			t.Errorf("backend %s healthy=%v, want %v", row.URL, row.Healthy, want)
		}
	}
}

// TestWeightedRouterShares drives many distinct keys through a weighted
// fleet of stub backends and checks routed shares track the 2:1 weights.
func TestWeightedRouterShares(t *testing.T) {
	b1 := newStubBackend(t, "heavy")
	b2 := newStubBackend(t, "light")
	r, ts := newTestRouter(t, Config{Weights: []float64{2, 1}}, b1, b2)
	_ = r
	const n = 300
	for i := 0; i < n; i++ {
		resp, body := postVerify(t, ts.URL, fmt.Sprintf("program W%d() { skip; }", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	heavy, light := b1.served.Load(), b2.served.Load()
	if heavy+light != n {
		t.Fatalf("served %d+%d, want %d", heavy, light, n)
	}
	// Expect ~2/3 on the heavy backend; allow a generous band.
	if heavy < n/2 || heavy > n*5/6 {
		t.Errorf("heavy backend served %d of %d (want ≈%d)", heavy, n, n*2/3)
	}
}
