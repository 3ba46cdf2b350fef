package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/promtext"
)

// BackendStats is one backend's row in the router's /v1/stats response.
type BackendStats struct {
	URL string `json:"url"`
	// ServerID is the backend's self-reported identity (X-VS3-Backend),
	// empty until the router has heard from it.
	ServerID  string `json:"server_id,omitempty"`
	Healthy   bool   `json:"healthy"`
	Routed    int64  `json:"routed"`
	Failovers int64  `json:"failovers"`
	// Weight is the backend's ring share multiplier (1.0 = standard).
	Weight float64 `json:"weight"`
	// Proto is "rpc" once the backend has advertised a VS3R endpoint (the
	// only wire requests travel on), else "none".
	Proto string `json:"proto"`
	// RPCConns is the router's open binary connections to this backend.
	RPCConns int64 `json:"rpc_conns,omitempty"`
	// StoreDigestGen is the solved-outcome digest generation the router last
	// fetched from this backend (0 = none held; StoreAware only).
	StoreDigestGen uint64 `json:"store_digest_gen,omitempty"`
}

// statsResponse is the body of the router's GET /v1/stats. The summed
// backend solver counters reuse the vs3d field names (smt_queries,
// smt_cache_hits, ...) so fleet-level tools (cmd/vs3load) parse a router
// and a single backend identically.
type statsResponse struct {
	RouterID      string         `json:"router_id"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Policy        Policy         `json:"policy"`
	Requests      int64          `json:"requests_proxied"`
	Batches       int64          `json:"batches"`
	BatchItems    int64          `json:"batch_items"`
	Failovers     int64          `json:"failovers"`
	NoBackend     int64          `json:"no_backend"`
	HedgeFired    int64          `json:"hedge_fired"`
	HedgeWon      int64          `json:"hedge_won"`
	HedgeCanceled int64          `json:"hedge_canceled"`
	StoreAware    bool           `json:"store_aware"`
	StoreHits     int64          `json:"route_store_hits"`
	RPCConns      int64          `json:"rpc_conns"`
	Backends      []BackendStats `json:"backends"`

	// Fleet totals summed from every live backend's /v1/stats.
	BackendRequests  int64 `json:"requests"`
	Rejected         int64 `json:"rejected"`
	Aborted          int64 `json:"aborted"`
	Truncated        int64 `json:"truncated"`
	ProblemCacheHits int64 `json:"problem_cache_hits"`
	Queries          int64 `json:"smt_queries"`
	CacheHits        int64 `json:"smt_cache_hits"`
	AssumptionProbes int64 `json:"assumption_probes"`
	FMScratch        int64 `json:"fm_scratch"`
	FMIncremental    int64 `json:"fm_incremental"`
	SharedLemmas     int64 `json:"shared_lemmas"`
	CorePruned       int64 `json:"core_pruned"`
	CoreEvicted      int64 `json:"core_evicted"`
}

// backendTotals is the slice of a vs3d stats body the router aggregates.
type backendTotals struct {
	Requests         int64 `json:"requests"`
	Rejected         int64 `json:"rejected"`
	Aborted          int64 `json:"aborted"`
	Truncated        int64 `json:"truncated"`
	ProblemCacheHits int64 `json:"problem_cache_hits"`
	Queries          int64 `json:"smt_queries"`
	CacheHits        int64 `json:"smt_cache_hits"`
	AssumptionProbes int64 `json:"assumption_probes"`
	FMScratch        int64 `json:"fm_scratch"`
	FMIncremental    int64 `json:"fm_incremental"`
	SharedLemmas     int64 `json:"shared_lemmas"`
	CorePruned       int64 `json:"core_pruned"`
	CoreEvicted      int64 `json:"core_evicted"`
}

// statsSnapshot assembles the router view, polling live backends for their
// counters (bounded by the health timeout so a hung backend cannot stall
// the stats endpoint).
func (r *Router) statsSnapshot(ctx context.Context) statsResponse {
	resp := statsResponse{
		RouterID:      r.cfg.ID,
		UptimeSeconds: time.Since(r.started).Seconds(),
		Policy:        r.cfg.Policy,
		Requests:      r.requests.Load(),
		Batches:       r.batches.Load(),
		BatchItems:    r.batchItems.Load(),
		Failovers:     r.failovers.Load(),
		NoBackend:     r.noBackend.Load(),
		HedgeFired:    r.hedgeFired.Load(),
		HedgeWon:      r.hedgeWon.Load(),
		HedgeCanceled: r.hedgeCanceled.Load(),
		StoreAware:    r.cfg.StoreAware,
		StoreHits:     r.storeHits.Load(),
	}
	totals := make([]backendTotals, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		bs := BackendStats{
			URL:       b.url,
			ServerID:  b.id(),
			Healthy:   b.healthy.Load(),
			Routed:    b.routed.Load(),
			Failovers: b.failovers.Load(),
			Weight:    b.weight,
			Proto:     "none",
		}
		if c := b.rpcClient(); c != nil {
			bs.Proto = "rpc"
			bs.RPCConns = c.OpenConns()
			resp.RPCConns += bs.RPCConns
		}
		bs.StoreDigestGen = b.digestGen.Load()
		resp.Backends = append(resp.Backends, bs)
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			tctx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(tctx, http.MethodGet, b.url+"/v1/stats", nil)
			if err != nil {
				return
			}
			res, err := r.client.Do(req)
			if err != nil {
				return
			}
			defer func() {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}()
			if res.StatusCode != http.StatusOK {
				return
			}
			_ = json.NewDecoder(res.Body).Decode(&totals[i])
		}(i, b)
	}
	wg.Wait()
	for _, t := range totals {
		resp.BackendRequests += t.Requests
		resp.Rejected += t.Rejected
		resp.Aborted += t.Aborted
		resp.Truncated += t.Truncated
		resp.ProblemCacheHits += t.ProblemCacheHits
		resp.Queries += t.Queries
		resp.CacheHits += t.CacheHits
		resp.AssumptionProbes += t.AssumptionProbes
		resp.FMScratch += t.FMScratch
		resp.FMIncremental += t.FMIncremental
		resp.SharedLemmas += t.SharedLemmas
		resp.CorePruned += t.CorePruned
		resp.CoreEvicted += t.CoreEvicted
	}
	return resp
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, r.statsSnapshot(req.Context()))
}

// handleMetrics renders router counters in Prometheus text format:
// per-backend routed/failover/health series labeled by backend URL, plus
// router-level totals. Backend-internal counters are scraped from each
// backend's own /metrics, not re-exported here.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	pw := promtext.New()
	id := []string{"router", r.cfg.ID}
	pw.Gauge("vs3router_uptime_seconds", "Seconds since the router started.", time.Since(r.started).Seconds(), id...)
	pw.Counter("vs3router_requests_total", "Single requests proxied.", float64(r.requests.Load()), id...)
	pw.Counter("vs3router_batches_total", "Batch requests accepted.", float64(r.batches.Load()), id...)
	pw.Counter("vs3router_batch_items_total", "Items across all batches.", float64(r.batchItems.Load()), id...)
	pw.Counter("vs3router_failovers_total", "Failover hops after backend transport failures.", float64(r.failovers.Load()), id...)
	pw.Counter("vs3router_no_backend_total", "Requests/items failed because no backend answered.", float64(r.noBackend.Load()), id...)
	pw.Counter("vs3router_hedge_fired_total", "Hedge requests fired at ring successors.", float64(r.hedgeFired.Load()), id...)
	pw.Counter("vs3router_hedge_won_total", "Hedged races the successor answered first.", float64(r.hedgeWon.Load()), id...)
	pw.Counter("vs3router_hedge_canceled_total", "Losing sides cancelled after the other side won.", float64(r.hedgeCanceled.Load()), id...)
	pw.Counter("vs3router_store_hits_total", "Placements moved off the ring owner by a solved-outcome digest claim.", float64(r.storeHits.Load()), id...)
	var rpcConns int64
	for _, b := range r.backends {
		labels := []string{"backend", b.url}
		pw.Gauge("vs3router_backend_healthy", "1 while the backend passes health checks.", boolGauge(b.healthy.Load()), labels...)
		pw.Counter("vs3router_backend_routed_total", "Requests and batch items routed to the backend.", float64(b.routed.Load()), labels...)
		pw.Counter("vs3router_backend_failovers_total", "Requests moved off the backend after transport failures.", float64(b.failovers.Load()), labels...)
		pw.Gauge("vs3router_backend_weight", "Configured ring-share weight.", b.weight, labels...)
		var conns int64
		if c := b.rpcClient(); c != nil {
			conns = c.OpenConns()
			rpcConns += conns
		}
		pw.Gauge("vs3router_backend_rpc_conns", "Open binary rpc connections to the backend.", float64(conns), labels...)
	}
	pw.Gauge("vs3router_rpc_conns", "Open binary rpc connections across all backends.", float64(rpcConns), id...)
	var buf bytes.Buffer
	_, _ = pw.WriteTo(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
