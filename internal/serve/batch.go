package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/stats"
)

// maxBatchBytes bounds a /v1/batch request body (many specs in one request).
const maxBatchBytes = 32 << 20

// BatchRequest is the body of POST /v1/batch: many verification problems in
// one request. Bulk clients amortize HTTP and queueing overhead; the router
// additionally routes every item by its own problem key so each still lands
// on the backend that is warm for its skeleton.
type BatchRequest struct {
	Items []VerifyRequest `json:"items"`
}

// BatchResult is one line of the /v1/batch NDJSON response stream. Results
// stream in completion order, not submission order: Index identifies the
// item (its position in BatchRequest.Items), and exactly one result is
// emitted per item. Items fail independently — a parse error, shed, or abort
// on one item never affects the others (OK=false with the HTTP-equivalent
// Status and Error a standalone request would have carried).
type BatchResult struct {
	Index      int             `json:"index"`
	OK         bool            `json:"ok"`
	Status     int             `json:"status"`
	Error      string          `json:"error,omitempty"`
	ProblemKey string          `json:"problem_key,omitempty"`
	Verify     *VerifyResponse `json:"verify,omitempty"`
}

// handleBatch runs every item of the batch through the same problem cache,
// fair queue, and session pool as single requests (each item counts as one
// request for the batch's client key), streaming one NDJSON result line per
// item as it completes. Worker fan-out is capped at the pool size so one
// batch enqueues at most Pool waiters at a time — combined with round-robin
// admission, a huge batch cannot monopolize the queue against other clients.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodePostLimit(w, r, &req, maxBatchBytes) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty \"items\""))
		return
	}
	if len(req.Items) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d items exceeds the maximum of %d", len(req.Items), s.cfg.MaxBatch))
		return
	}
	s.ctr.Add(stats.Batches, 1)
	s.ctr.Add(stats.BatchItems, int64(len(req.Items)))
	client := ClientKey(r)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(res BatchResult) {
		wmu.Lock()
		defer wmu.Unlock()
		_ = enc.Encode(res)
		if flusher != nil {
			flusher.Flush()
		}
	}

	workers := s.cfg.Pool
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range indices {
				emit(s.runBatchItem(r, client, idx, req.Items[idx]))
			}
		}()
	}
	for idx := range req.Items {
		indices <- idx
	}
	close(indices)
	wg.Wait()
}

func (s *Server) runBatchItem(r *http.Request, client string, idx int, item VerifyRequest) BatchResult {
	resp, key, status, err := s.RunVerify(r.Context(), client, item)
	res := BatchResult{Index: idx, Status: status, ProblemKey: key}
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.OK = status == http.StatusOK
	res.Verify = &resp
	return res
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// decodePost decodes a POST body bounded by maxSpecBytes, answering 405/400
// itself and reporting whether the caller should proceed.
func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodePostLimit(w, r, v, maxSpecBytes)
}

func decodePostLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	if vr, ok := v.(*VerifyRequest); ok && vr.Spec == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"spec\""))
		return false
	}
	return true
}
