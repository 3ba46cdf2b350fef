package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/optimal"
	"repro/internal/stats"
)

// arrayInitSpec is the paper's running example in vs3 input syntax, with
// njunk extra irrelevant predicates appended to the vocabulary. CFP encoding
// cost grows steeply with the vocabulary (one OptimalNegativeSolutions call
// per (unknown, predicate)), so njunk dials a task from ~0.3s (0) to ~30s
// (10) — the lever the deadline and queue tests use.
func arrayInitSpec(njunk int) string {
	src := `
program ArrayInit(array A, n) {
  i := 0;
  while loop (i < n) {
    A[i] := 0;
    i := i + 1;
  }
  assert(forall j. (0 <= j && j < n) => A[j] = 0);
}
template loop: forall j. ?v => A[j] = 0;
predicates v: j < 0, j <= 0, j > 0, j >= 0, j < i, j <= i, j > i, j >= i, j < n, j <= n, j > n, j >= n`
	for k := 0; k < njunk; k++ {
		src += fmt.Sprintf(", j + %d < n + %d", k+1, k+13)
	}
	return src + ";\n"
}

// guardedInitSpec is a §6 precondition-inference task: the loop initializes
// A[0..n) but the assertion demands A[0..m); the weakest precondition in the
// vocabulary is m <= n.
const guardedInitSpec = `
program GuardedInit(array A, n, m) {
  i := 0;
  while loop (i < n) {
    A[i] := 0;
    i := i + 1;
  }
  assert(forall k. (0 <= k && k < m) => A[k] = 0);
}
template entry: ?pre;
template loop: ?v0 && (forall k. ?v1 => A[k] = 0);
predicates pre: m <= n, n <= m, m <= 0;
predicates v0: m <= n, i <= n, 0 <= i;
predicates v1: 0 <= k, k < i, k < n, k < m;
`

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// getStats reads a /v1/stats body back into the registry's rows.
func getStats(t *testing.T, client *http.Client, base string) stats.Values {
	t.Helper()
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return stats.ParseJSON(body, stats.Daemon)
}

func TestVerifyAllMethodsAndHealth(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 2}).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	for _, m := range []string{"lfp", "gfp", "cfp"} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/verify",
			VerifyRequest{Spec: arrayInitSpec(0), Method: m})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", m, resp.StatusCode, body)
		}
		var vr VerifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if !vr.Proved || vr.Aborted || vr.Truncated {
			t.Errorf("%s: %+v", m, vr)
		}
		if vr.Invariants["loop"] == "" {
			t.Errorf("%s: no loop invariant in response", m)
		}
		if vr.Stats.Queries == 0 && vr.Stats.CandidateSteps == 0 && vr.Stats.SATFormulas == 0 {
			t.Errorf("%s: empty request-scoped stats: %+v", m, vr.Stats)
		}
	}
}

func TestPreconditionsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 1}).Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/preconditions",
		VerifyRequest{Spec: guardedInitSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PreconditionsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Aborted || len(pr.Preconditions) == 0 {
		t.Fatalf("preconditions: %+v", pr)
	}
	found := false
	for _, p := range pr.Preconditions {
		if strings.Contains(p, "m <= n") {
			found = true
		}
	}
	if !found {
		t.Errorf("m <= n not among preconditions %v", pr.Preconditions)
	}
}

// TestRepeatedProblemWarmCaches is the fleet-amortization check: the second
// request for the same problem on the same pool must ride the first one's
// caches — strictly fewer from-scratch SMT queries, and cache/context hits
// visible on /v1/stats.
func TestRepeatedProblemWarmCaches(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 1}).Handler())
	defer ts.Close()

	var deltas []VerifyResponse
	var durations []time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/verify",
			VerifyRequest{Spec: arrayInitSpec(0), Method: "gfp"})
		durations = append(durations, time.Since(start))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var vr VerifyResponse
		if err := json.Unmarshal(body, &vr); err != nil {
			t.Fatal(err)
		}
		if !vr.Proved {
			t.Fatalf("request %d not proved", i)
		}
		deltas = append(deltas, vr)
	}
	if deltas[1].Stats.Queries >= deltas[0].Stats.Queries {
		t.Errorf("warm request decided %d queries, cold %d — caches not shared",
			deltas[1].Stats.Queries, deltas[0].Stats.Queries)
	}
	t.Logf("cold: %v (%d queries), warm: %v (%d queries)",
		durations[0], deltas[0].Stats.Queries, durations[1], deltas[1].Stats.Queries)

	sr := getStats(t, ts.Client(), ts.URL)
	if sr[stats.ProblemCacheHits] < 1 {
		t.Errorf("problem cache hits = %v, want >= 1", sr[stats.ProblemCacheHits])
	}
	if sr[stats.CacheHits] == 0 {
		t.Errorf("no SMT cache hits after a repeated problem: %+v", sr)
	}
	if sr[stats.Requests] != 2 {
		t.Errorf("requests = %v, want 2", sr[stats.Requests])
	}
}

// TestDeadlineAbortsCFP is the regression for the dropped CBI Stop wiring:
// a CFP request with a 50ms deadline on a task whose cold run takes ~30s
// must come back promptly as 504/aborted, not grind to completion and
// report a false negative.
func TestDeadlineAbortsCFP(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 1}).Handler())
	defer ts.Close()
	start := time.Now()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/verify",
		VerifyRequest{Spec: arrayInitSpec(10), Method: "cfp", TimeoutMS: 50})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Aborted || vr.Proved {
		t.Errorf("want aborted, got %+v", vr)
	}
	if elapsed > 8*time.Second {
		t.Errorf("aborted request took %v; deadline was 50ms", elapsed)
	}
	sr := getStats(t, ts.Client(), ts.URL)
	if sr[stats.Aborted] != 1 {
		t.Errorf("stats aborted = %v, want 1", sr[stats.Aborted])
	}
}

// TestQueueSaturation fills the single session and the one-deep queue, then
// expects the next request to be shed with 429 + Retry-After.
func TestQueueSaturation(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 1, Queue: 1}).Handler())
	defer ts.Close()

	slow := arrayInitSpec(40)
	var wg sync.WaitGroup
	reqDone := make(chan int, 2)
	launch := func(timeoutMS int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/verify",
				VerifyRequest{Spec: slow, Method: "cfp", TimeoutMS: timeoutMS})
			reqDone <- resp.StatusCode
		}()
	}
	waitFor := func(cond func(stats.Values) bool, what string) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond(getStats(t, ts.Client(), ts.URL)) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	launch(3000) // occupies the one session for its full 3s deadline
	waitFor(func(s stats.Values) bool { return s[stats.InFlight] == 1 }, "first request in flight")
	launch(100) // sits in the queue
	waitFor(func(s stats.Values) bool { return s[stats.Queued] == 1 }, "second request queued")

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/verify",
		VerifyRequest{Spec: slow, Method: "cfp", TimeoutMS: 100})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if _, ok := RetryAfter(resp.Header); !ok {
		t.Error("429 without Retry-After")
	}

	wg.Wait()
	close(reqDone)
	for code := range reqDone {
		if code != http.StatusGatewayTimeout {
			t.Errorf("queued/slow request finished with %d, want 504", code)
		}
	}
	if sr := getStats(t, ts.Client(), ts.URL); sr[stats.Rejected] != 1 {
		t.Errorf("rejected = %v, want 1", sr[stats.Rejected])
	}
}

// TestConcurrentRequests hammers a small pool with more in-flight requests
// than sessions, mixing all three methods and the preconditions endpoint.
// Run under -race (make test-race) this is the pool's concurrency proof.
func TestConcurrentRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 4, Queue: 32}).Handler())
	defer ts.Close()

	const n = 12 // >= 8 in flight beyond the pool of 4
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%4 == 3 {
				resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/preconditions",
					VerifyRequest{Spec: guardedInitSpec})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("preconditions: status %d: %s", resp.StatusCode, body)
				}
				return
			}
			method := []string{"lfp", "gfp", "cfp"}[i%3]
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/verify",
				VerifyRequest{Spec: arrayInitSpec(0), Method: method})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", method, resp.StatusCode, body)
				return
			}
			var vr VerifyResponse
			if err := json.Unmarshal(body, &vr); err != nil {
				errs <- err
				return
			}
			if !vr.Proved {
				errs <- fmt.Errorf("%s: not proved: %+v", method, vr)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sr := getStats(t, ts.Client(), ts.URL); sr[stats.Requests] != n {
		t.Errorf("requests = %v, want %v", sr[stats.Requests], n)
	}
}

// TestTruncationSurfaced caps the enumeration hard and checks the clipped
// search is reported instead of silently posing as a complete answer.
func TestTruncationSurfaced(t *testing.T) {
	cfg := Config{Pool: 1}
	cfg.Core.Fixpoint.MaxSteps = 2
	ts := httptest.NewServer(New(cfg).Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/preconditions",
		VerifyRequest{Spec: guardedInitSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PreconditionsResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Truncated {
		t.Errorf("want truncated enumeration, got %+v", pr)
	}
	if sr := getStats(t, ts.Client(), ts.URL); sr[stats.Truncated] != 1 {
		t.Errorf("stats truncated = %v, want 1", sr[stats.Truncated])
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 1}).Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"missing spec", VerifyRequest{Method: "lfp"}, http.StatusBadRequest},
		{"parse error", VerifyRequest{Spec: "program {"}, http.StatusBadRequest},
		{"unknown method", VerifyRequest{Spec: arrayInitSpec(0), Method: "dfs"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/verify", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d: %s", c.name, resp.StatusCode, c.want, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/verify: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats: status %d, want 405", resp.StatusCode)
	}
}

// TestDrainFlipsHealthz: StartDrain takes the backend out of router rotation
// (healthz 503) while verify keeps answering in-flight and late requests.
func TestDrainFlipsHealthz(t *testing.T) {
	srv := New(Config{Pool: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.StartDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}

	vresp, body := postJSON(t, ts.Client(), ts.URL+"/v1/verify",
		VerifyRequest{Spec: arrayInitSpec(0), Method: "lfp"})
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("verify while draining: status %d: %s", vresp.StatusCode, body)
	}
	if getStats(t, ts.Client(), ts.URL)[stats.Draining] == 0 {
		t.Error("stats does not report draining")
	}
}

// boundsSpec is ArrayInit over a vocabulary of k pairwise-inconsistent bound
// pairs (j <= c, j >= c+1) starting at off: every pair (j <= c, j >= d+1)
// with c <= d is an unsat core, 36 of them at k = 8, so 32 such problems
// overflow the core store's whole capacity, however its shards fill.
func boundsSpec(k, off int) string {
	var ps []string
	for c := off; c < off+k; c++ {
		ps = append(ps, fmt.Sprintf("j <= %d", c), fmt.Sprintf("j >= %d", c+1))
	}
	src := arrayInitSpec(0)
	return src[:strings.Index(src, "predicates v: ")] + "predicates v: j >= 0, j < i, " + strings.Join(ps, ", ") + ";\n"
}

// TestCoreEvictedCountedOnce: the pooled sessions share one core store, and
// each engine counts only the evictions its own inserts caused, so
// core_evicted on /v1/stats and /metrics equals the store's eviction count
// rather than Pool times it. The store stripes its shards by the whole core,
// so it takes more cores than fit in it to force evictions.
func TestCoreEvictedCountedOnce(t *testing.T) {
	cores := optimal.NewCoreStore()
	cfg := Config{Pool: 2}
	cfg.Core.Cores = cores
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < 32; r += 2 {
				body, _ := json.Marshal(VerifyRequest{Spec: boundsSpec(8, 10*r), Method: "lfp"})
				resp, err := ts.Client().Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("verify %d: %v", r, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("verify %d: status %d", r, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	evicted := float64(cores.NumEvicted())
	if evicted == 0 {
		t.Fatal("the problems evicted no cores; the test needs evictions")
	}
	if got := getStats(t, ts.Client(), ts.URL)[stats.CoreEvicted]; got != evicted {
		t.Errorf("/v1/stats core_evicted = %v, the shared store evicted %v", got, evicted)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if want := fmt.Sprintf("vs3d_core_evicted_total{server=%q} %v\n", srv.ID(), evicted); !strings.Contains(buf.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}
