package route

import (
	"bufio"
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
)

// stubBackend is a scripted vs3d stand-in on the production wire: an
// rpc.Handler served by rpc.NewServer for requests, plus the HTTP control
// plane — /healthz advertising the rpc endpoint (and a store digest
// generation, if any) and /v1/stats. No engine, so tests are fast and
// failure modes are scriptable.
type stubBackend struct {
	id    string
	ts    *httptest.Server
	rpcLn net.Listener
	rsrv  *rpc.Server
	// served counts data-plane requests on either wire; the router must
	// send them all over rpc.
	served atomic.Int64
	// dieAfter > 0 closes the rpc server once that many calls have been
	// answered (a backend death mid-batch).
	dieAfter atomic.Int64
	// stall makes a call wait for its cancellation (counted in canceled).
	stall    atomic.Bool
	canceled atomic.Int64
	// advertise is the X-VS3-RPC value /healthz sends; digest and gen are
	// the store digest served over rpc KindDigest and its generation.
	advertise string
	digest    string
	gen       uint64
}

// stubOption adjusts a stub before it starts serving.
type stubOption func(*stubBackend)

// advertising overrides the advertised rpc endpoint ("" advertises none).
func advertising(addr string) stubOption { return func(b *stubBackend) { b.advertise = addr } }

// withDigest gives the stub a store digest at generation gen.
func withDigest(digest string, gen uint64) stubOption {
	return func(b *stubBackend) { b.digest, b.gen = digest, gen }
}

func newStubBackend(t *testing.T, id string, opts ...stubOption) *stubBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &stubBackend{id: id, rpcLn: ln, advertise: ln.Addr().String()}
	for _, o := range opts {
		o(b)
	}
	b.rsrv = rpc.NewServer(b, rpc.ServerConfig{})
	go func() { _ = b.rsrv.Serve(ln) }()
	t.Cleanup(b.killRPC)

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-VS3-Backend", b.id)
		if b.advertise != "" {
			w.Header().Set("X-VS3-RPC", b.advertise)
		}
		if b.gen > 0 {
			w.Header().Set("X-VS3-Store-Gen", fmt.Sprint(b.gen))
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]int64{
			"requests": b.served.Load(), "smt_queries": 10, "smt_cache_hits": 5,
		})
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		b.served.Add(1) // the HTTP data plane: the router must never use it
		http.Error(w, "stub serves requests over rpc only", http.StatusNotFound)
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

// ServeRPC answers every verify with a proof whose invariants echo the
// serving backend ("by") and the fair-queue client key it received.
func (b *stubBackend) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	if req.Kind == rpc.KindDigest {
		body, _ := json.Marshal(serve.DigestResponse{Digest: b.digest, Gen: b.gen})
		return rpc.Response{Status: http.StatusOK, Backend: b.id, Body: body}
	}
	if b.stall.Load() {
		<-ctx.Done()
		b.canceled.Add(1)
		return rpc.Response{Status: 499, Backend: b.id, Body: []byte(`{"error":"aborted"}`)}
	}
	if n := b.served.Add(1); b.dieAfter.Load() > 0 && n > b.dieAfter.Load() {
		b.killRPC()
	}
	body, _ := json.Marshal(serve.VerifyResponse{
		Method: "LFP", Proved: true,
		Invariants: map[string]string{"by": b.id, "client": req.Client},
	})
	return rpc.Response{Status: http.StatusOK, ProblemKey: serve.ProblemKey(req.Spec), Backend: b.id, Body: body}
}

// killRPC closes the rpc listener and every rpc connection: calls in
// flight fail at the transport level and new dials are refused.
func (b *stubBackend) killRPC() {
	b.rpcLn.Close()
	b.rsrv.Close()
}

func newTestRouter(t *testing.T, cfg Config, backends ...*stubBackend) (*Router, *httptest.Server) {
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.ts.URL)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	return r, ts
}

func postVerify(t *testing.T, url, spec string) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: "lfp"})
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestAffinityRouting is the tentpole property: the same spec always lands
// on the same backend, and distinct specs use more than one backend.
func TestAffinityRouting(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	_, ts := newTestRouter(t, Config{}, b1, b2)

	specs := make([]string, 16)
	for i := range specs {
		specs[i] = fmt.Sprintf("program P%d() { skip; }", i)
	}
	owner := map[string]string{}
	for round := 0; round < 3; round++ {
		for _, spec := range specs {
			resp, body := postVerify(t, ts.URL, spec)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			got := resp.Header.Get("X-VS3-Backend")
			if got == "" {
				t.Fatal("response missing X-VS3-Backend")
			}
			if want, ok := owner[spec]; ok && want != got {
				t.Fatalf("spec routed to %s then %s — affinity broken", want, got)
			}
			owner[spec] = got
			if k := resp.Header.Get("X-VS3-Problem-Key"); k != serve.ProblemKey(spec) {
				t.Errorf("problem key header %q, want %q", k, serve.ProblemKey(spec))
			}
		}
	}
	used := map[string]bool{}
	for _, o := range owner {
		used[o] = true
	}
	if len(used) < 2 {
		t.Errorf("16 distinct specs all routed to one backend; ring not spreading")
	}
}

// TestClientKeyPropagated checks the router forwards the originating
// client's fair-queue key, so backends schedule by end client.
func TestClientKeyPropagated(t *testing.T) {
	b1 := newStubBackend(t, "b1")
	_, ts := newTestRouter(t, Config{}, b1)
	body, _ := json.Marshal(serve.VerifyRequest{Spec: "program P() { skip; }"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
	req.Header.Set("X-VS3-Client", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr serve.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if seen := vr.Invariants["client"]; seen != "alice" {
		t.Errorf("backend saw client key %q, want alice", seen)
	}
}

// TestFailoverOnDeadBackend kills one backend outright: every key it owned
// must rehash to the survivor (deterministically), failovers must be
// counted, and recovery is observed once the backend returns.
func TestFailoverOnDeadBackend(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	r, ts := newTestRouter(t, Config{}, b1, b2)

	// Find a spec owned by b1 (by URL index) so we can kill its owner.
	var victim string
	for i := 0; ; i++ {
		spec := fmt.Sprintf("program V%d() { skip; }", i)
		if r.ring.owner(serve.ProblemKey(spec)) == 0 {
			victim = spec
			break
		}
	}
	resp, _ := postVerify(t, ts.URL, victim)
	firstOwner := resp.Header.Get("X-VS3-Backend")
	if firstOwner != "backend-1" {
		t.Fatalf("victim spec served by %s, expected backend-1", firstOwner)
	}

	b1.killRPC() // the whole backend dies: both wires
	b1.ts.CloseClientConnections()
	b1.ts.Close()

	for i := 0; i < 3; i++ {
		resp, body := postVerify(t, ts.URL, victim)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request after backend death: status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-VS3-Backend"); got != "backend-2" {
			t.Fatalf("failover routed to %q, want backend-2", got)
		}
	}

	sr := routerStats(t, ts.URL)
	if sr.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", sr.Failovers)
	}
	var deadRow *backendRow
	for i := range sr.Backends {
		if sr.Backends[i].URL == b1.ts.URL {
			deadRow = &sr.Backends[i]
		}
	}
	if deadRow == nil || deadRow.Healthy {
		t.Errorf("dead backend still marked healthy: %+v", sr.Backends)
	}
	if deadRow != nil && deadRow.Failovers < 1 {
		t.Errorf("per-backend failovers = %d, want >= 1", deadRow.Failovers)
	}
}

// TestBatchSplitMerge pushes one batch with keys owned by both backends and
// checks the merged stream: every original index exactly once, results
// produced by the affinity owner of each item.
func TestBatchSplitMerge(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	r, ts := newTestRouter(t, Config{}, b1, b2)

	var items []serve.VerifyRequest
	for i := 0; i < 12; i++ {
		items = append(items, serve.VerifyRequest{Spec: fmt.Sprintf("program B%d() { skip; }", i)})
	}
	results := postBatch(t, ts.URL, serve.BatchRequest{Items: items})
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	seen := map[int]bool{}
	for _, res := range results {
		if seen[res.Index] {
			t.Fatalf("duplicate index %d", res.Index)
		}
		seen[res.Index] = true
		if !res.OK || res.Verify == nil {
			t.Fatalf("item %d failed: %+v", res.Index, res)
		}
		wantOwner := []string{"backend-1", "backend-2"}[r.ring.owner(serve.ProblemKey(items[res.Index].Spec))]
		if res.Verify.Invariants["by"] != wantOwner {
			t.Errorf("item %d served by %s, affinity owner is %s", res.Index, res.Verify.Invariants["by"], wantOwner)
		}
	}
	if b1.served.Load() == 0 || b2.served.Load() == 0 {
		t.Errorf("batch not split: served %d/%d", b1.served.Load(), b2.served.Load())
	}
}

// TestBatchFailoverMidStream kills one backend's rpc server after it has
// answered two of its items: the unanswered items must be re-sent to the
// survivor and every index still answered exactly once.
func TestBatchFailoverMidStream(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	r, ts := newTestRouter(t, Config{}, b1, b2)

	// Build a batch where backend-1 owns at least 4 items.
	var items []serve.VerifyRequest
	owned := 0
	for i := 0; owned < 4 || len(items) < 10; i++ {
		spec := fmt.Sprintf("program M%d() { skip; }", i)
		if r.ring.owner(serve.ProblemKey(spec)) == 0 {
			owned++
		}
		items = append(items, serve.VerifyRequest{Spec: spec})
	}
	b1.dieAfter.Store(2)

	results := postBatch(t, ts.URL, serve.BatchRequest{Items: items})
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	seen := map[int]int{}
	okCount := 0
	for _, res := range results {
		seen[res.Index]++
		if res.OK {
			okCount++
		} else {
			t.Errorf("item %d not recovered: %+v", res.Index, res)
		}
	}
	for i := range items {
		if seen[i] != 1 {
			t.Errorf("index %d answered %d times", i, seen[i])
		}
	}
	sr := routerStats(t, ts.URL)
	if sr.Failovers < 1 {
		t.Errorf("failovers = %d after mid-batch death, want >= 1", sr.Failovers)
	}
}

// TestRandomPolicySpreads is the control arm: under Random, a single hot
// key is served by more than one backend (which is exactly why Random
// destroys cache affinity).
func TestRandomPolicySpreads(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	_, ts := newTestRouter(t, Config{Policy: Random}, b1, b2)

	used := map[string]bool{}
	for i := 0; i < 32; i++ {
		resp, _ := postVerify(t, ts.URL, "program Hot() { skip; }")
		used[resp.Header.Get("X-VS3-Backend")] = true
	}
	if len(used) < 2 {
		t.Errorf("32 random-policy requests for one key all hit one backend (p = 2^-31)")
	}
}

// TestRouterStatsAndMetrics checks the aggregated stats view and the
// Prometheus rendering.
func TestRouterStatsAndMetrics(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	_, ts := newTestRouter(t, Config{ID: "router-under-test"}, b1)

	postVerify(t, ts.URL, "program S() { skip; }")
	sr := routerStats(t, ts.URL)
	if sr.RouterID != "router-under-test" || sr.Requests != 1 {
		t.Errorf("stats: %+v", sr)
	}
	if sr.Queries != 10 || sr.CacheHits != 5 {
		t.Errorf("backend totals not aggregated: queries=%d hits=%d", sr.Queries, sr.CacheHits)
	}
	if len(sr.Backends) != 1 || sr.Backends[0].ServerID != "backend-1" || sr.Backends[0].Routed != 1 {
		t.Errorf("backend rows: %+v", sr.Backends)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, want := range []string{
		`vs3router_requests_total{router="router-under-test"} 1`,
		"# TYPE vs3router_backend_routed_total counter",
		`vs3router_backend_healthy{backend="` + b1.ts.URL + `"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q\n%s", want, buf.String())
		}
	}
}

// routerBody is the slice of the router's /v1/stats body the tests read.
type routerBody struct {
	RouterID  string       `json:"router_id"`
	Requests  int64        `json:"requests_proxied"`
	Failovers int64        `json:"failovers"`
	NoBackend int64        `json:"no_backend"`
	Queries   int64        `json:"smt_queries"`
	CacheHits int64        `json:"smt_cache_hits"`
	Backends  []backendRow `json:"backends"`
}

// backendRow is one backend's row in the router's /v1/stats body.
type backendRow struct {
	URL       string `json:"url"`
	ServerID  string `json:"server_id"`
	Healthy   bool   `json:"healthy"`
	Routed    int64  `json:"routed"`
	Failovers int64  `json:"failovers"`
}

func routerStats(t *testing.T, base string) routerBody {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr routerBody
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func postBatch(t *testing.T, base string, req serve.BatchRequest) []serve.BatchResult {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, out.String())
	}
	var results []serve.BatchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r serve.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestCallerCancelKeepsOwnerHealthy: a caller abandoning its own request is
// not a backend failure. The owner must stay in rotation (no failover, no
// no_backend count) and keep serving its key.
func TestCallerCancelKeepsOwnerHealthy(t *testing.T) {
	b1 := newStubBackend(t, "backend-1")
	b2 := newStubBackend(t, "backend-2")
	r, err := New(Config{Backends: []string{b1.ts.URL, b2.ts.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	handled := make(chan struct{}, 1)
	h := r.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(w, req)
		if req.URL.Path == "/v1/verify" {
			handled <- struct{}{}
		}
	}))
	t.Cleanup(ts.Close)
	deadline := time.Now().Add(5 * time.Second)
	for r.backends[0].rpcClient() == nil || r.backends[1].rpcClient() == nil {
		if time.Now().After(deadline) {
			t.Fatal("router never discovered the rpc endpoints")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var spec string
	for i := 0; ; i++ {
		spec = fmt.Sprintf("program C%d() { skip; }", i)
		if r.ring.owner(serve.ProblemKey(spec)) == 0 {
			break
		}
	}
	b1.stall.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(serve.VerifyRequest{Spec: spec})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
	go func() {
		// Cancel once the request is in flight on the owner.
		for _, streams, _, _ := b1.rsrv.Stats(); streams == 0; _, streams, _, _ = b1.rsrv.Stats() {
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("cancelled request answered")
	}
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("router never finished the cancelled request")
	}
	for deadline := time.Now().Add(5 * time.Second); b1.canceled.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the cancellation never reached the owner")
		}
		time.Sleep(5 * time.Millisecond)
	}

	b1.stall.Store(false)
	sr := routerStats(t, ts.URL)
	if sr.Failovers != 0 || sr.NoBackend != 0 {
		t.Errorf("caller cancellation counted failovers=%d no_backend=%d, want 0", sr.Failovers, sr.NoBackend)
	}
	for _, row := range sr.Backends {
		if !row.Healthy {
			t.Errorf("backend %s left rotation after a caller cancellation", row.URL)
		}
	}
	resp, _ := postVerify(t, ts.URL, spec)
	if got := resp.Header.Get("X-VS3-Backend"); got != "backend-1" {
		t.Errorf("next request for the key served by %q, want its owner backend-1", got)
	}
}
