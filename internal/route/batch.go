package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/stats"
)

// batchWorkers bounds the items of one batch in flight at once.
const batchWorkers = 16

// handleBatch answers a client batch as one NDJSON stream: each item goes
// through execute on its own, so it gets the same key affinity, store-aware
// placement, hedging and per-item failover as a single request, and its
// result streams back under the client's original index as it completes.
// A bulk client pays one HTTP round trip while every item still lands on
// the backend that is warm for its skeleton; items that already answered
// are never re-run, and only items no live backend can serve come back as
// 502 results.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	var batch serve.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxProxyBody)).Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if len(batch.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty \"items\""))
		return
	}
	r.ctr.Add(stats.RouterBatches, 1)
	r.ctr.Add(stats.RouterBatchItems, int64(len(batch.Items)))
	client := serve.ClientKey(req)

	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.RequestTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	enc := json.NewEncoder(w)

	sem := make(chan struct{}, batchWorkers)
	var wg sync.WaitGroup
	for i, item := range batch.Items {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, item serve.VerifyRequest) {
			defer func() { <-sem; wg.Done() }()
			res := r.execute(ctx, serve.ProblemKey(item.Spec), client, rpc.Request{
				Kind: rpc.KindVerify, Method: item.Method, TimeoutMS: item.TimeoutMS, Spec: item.Spec,
			})
			line := batchResult(i, res)
			wmu.Lock()
			defer wmu.Unlock()
			_ = enc.Encode(line)
			if flusher != nil {
				flusher.Flush()
			}
		}(i, item)
	}
	wg.Wait()
}

// batchResult maps one item's result onto the NDJSON per-item shape. A
// success or aborted body is a serve.VerifyResponse; error-shaped bodies
// ({"error": ...}) carry the message a standalone request would have.
func batchResult(index int, res callResult) serve.BatchResult {
	out := serve.BatchResult{Index: index, Status: res.status, ProblemKey: res.problemKey}
	if res.err != nil {
		out.Error = res.err.Error()
		return out
	}
	var full struct {
		serve.VerifyResponse
		Error string `json:"error"`
	}
	_ = json.Unmarshal(res.body, &full)
	if full.Error != "" {
		out.Error = full.Error
		return out
	}
	out.OK = res.status == http.StatusOK
	out.Verify = &full.VerifyResponse
	return out
}
