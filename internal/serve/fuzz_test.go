package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzBatchRequest posts arbitrary bodies to /v1/batch. The handler must
// never panic, and it answers either a 4xx or a 200 whose NDJSON stream
// holds exactly one result line per item, each item index exactly once.
// The server has one session, a small MaxBatch and a 30ms timeout, so no
// item runs long. Seeds in testdata/fuzz/FuzzBatchRequest: a valid batch
// built from examples/quickstart/arrayinit.vs3, an empty item list, a batch
// over MaxBatch, malformed JSON, and an item with an unknown method.
func FuzzBatchRequest(f *testing.F) {
	const maxBatch = 4
	h := New(Config{
		Pool:           1,
		MaxBatch:       maxBatch,
		DefaultTimeout: 30 * time.Millisecond,
		MaxTimeout:     30 * time.Millisecond,
	}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, want 4xx or 200: %s", rec.Code, rec.Body)
		}
		var req BatchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		seen := make([]bool, len(req.Items))
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		lines := 0
		for sc.Scan() {
			lines++
			var res BatchResult
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if res.Index < 0 || res.Index >= len(seen) || seen[res.Index] {
				t.Fatalf("result index %d out of range or repeated (%d items)", res.Index, len(seen))
			}
			seen[res.Index] = true
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if lines != len(req.Items) {
			t.Fatalf("%d result lines for %d items", lines, len(req.Items))
		}
	})
}
