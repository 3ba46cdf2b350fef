package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// postBatch posts a batch and decodes the NDJSON result stream.
func postBatch(t *testing.T, client *http.Client, url string, req BatchRequest) (*http.Response, []BatchResult) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Error responses are plain JSON, not an NDJSON stream.
		return resp, nil
	}
	var results []BatchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r BatchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, results
}

// TestBatchOrderingAndResults checks the /v1/batch contract: exactly one
// result per item, each tagged with its submission index, verdicts matching
// what standalone requests would return, and per-item problem keys echoed.
func TestBatchOrderingAndResults(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 2}).Handler())
	defer ts.Close()

	items := []VerifyRequest{
		{Spec: arrayInitSpec(0), Method: "lfp"},
		{Spec: arrayInitSpec(0), Method: "gfp"},
		{Spec: arrayInitSpec(1), Method: "lfp"},
		{Spec: arrayInitSpec(0), Method: "cfp"},
	}
	resp, results := postBatch(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	seen := map[int]bool{}
	for _, r := range results {
		if r.Index < 0 || r.Index >= len(items) {
			t.Fatalf("result index %d out of range", r.Index)
		}
		if seen[r.Index] {
			t.Fatalf("duplicate result for index %d", r.Index)
		}
		seen[r.Index] = true
		if !r.OK || r.Status != http.StatusOK || r.Verify == nil || !r.Verify.Proved {
			t.Errorf("item %d: %+v", r.Index, r)
		}
		if r.ProblemKey != ProblemKey(items[r.Index].Spec) {
			t.Errorf("item %d: problem key %q does not match spec", r.Index, r.ProblemKey)
		}
	}
	wantMethods := []string{"LFP", "GFP", "LFP", "CFP"}
	for _, r := range results {
		if r.Verify.Method != wantMethods[r.Index] {
			t.Errorf("item %d ran %s, want %s", r.Index, r.Verify.Method, wantMethods[r.Index])
		}
	}

	sr := getStats(t, ts.Client(), ts.URL)
	if sr.Batches != 1 || sr.BatchItems != int64(len(items)) {
		t.Errorf("batches=%d items=%d, want 1/%d", sr.Batches, sr.BatchItems, len(items))
	}
	if sr.Requests != int64(len(items)) {
		t.Errorf("requests=%d, want %d (each item counts)", sr.Requests, len(items))
	}
}

// TestBatchPartialFailure mixes good items with a parse error and an
// unknown method: the bad items fail independently with their standalone
// status while the good items still verify.
func TestBatchPartialFailure(t *testing.T) {
	ts := httptest.NewServer(New(Config{Pool: 2}).Handler())
	defer ts.Close()

	items := []VerifyRequest{
		{Spec: arrayInitSpec(0), Method: "lfp"},
		{Spec: "program {", Method: "lfp"},
		{Spec: arrayInitSpec(0), Method: "dfs"},
		{Spec: arrayInitSpec(0), Method: "gfp"},
	}
	resp, results := postBatch(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	byIndex := map[int]BatchResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}
	for _, i := range []int{0, 3} {
		if r := byIndex[i]; !r.OK || r.Verify == nil || !r.Verify.Proved {
			t.Errorf("good item %d failed: %+v", i, r)
		}
	}
	for _, i := range []int{1, 2} {
		r := byIndex[i]
		if r.OK || r.Status != http.StatusBadRequest || r.Error == "" {
			t.Errorf("bad item %d: %+v", i, r)
		}
		if r.Verify != nil {
			t.Errorf("bad item %d carries a verify result: %+v", i, r)
		}
	}
}

// TestBatchValidation checks empty and oversized batches are rejected whole.
func TestBatchValidation(t *testing.T) {
	cfg := Config{Pool: 1, MaxBatch: 2}
	ts := httptest.NewServer(New(cfg).Handler())
	defer ts.Close()

	resp, _ := postBatch(t, ts.Client(), ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	big := BatchRequest{Items: []VerifyRequest{{Spec: "x"}, {Spec: "y"}, {Spec: "z"}}}
	resp, _ = postBatch(t, ts.Client(), ts.URL+"/v1/batch", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", resp.StatusCode)
	}
}

// TestMetricsEndpoint checks /metrics renders the Prometheus families with
// the server identity label after some traffic.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{ID: "test-backend", Pool: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postAs(t, ts.Client(), ts.URL+"/v1/verify", "m", VerifyRequest{Spec: arrayInitSpec(0), Method: "lfp"})

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE vs3d_requests_total counter",
		`vs3d_requests_total{server="test-backend"} 1`,
		"# TYPE vs3d_smt_queries_total counter",
		`vs3d_up{server="test-backend"} 1`,
		"# TYPE vs3d_ctx_evicted_total counter",
		"# TYPE vs3d_ctx_budget_used gauge",
		"# TYPE vs3d_cache_evicted_total counter",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	if resp.Header.Get("X-VS3-Backend") != "test-backend" {
		t.Error("missing X-VS3-Backend header")
	}
	// The verify run left its context groups registered under the budget.
	if used := srv.statsSnapshot().CtxBudgetUsed; used <= 0 {
		t.Errorf("ctx_budget_used = %d after a verify run, want > 0", used)
	}
}
