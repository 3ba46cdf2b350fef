package serve

import (
	"bytes"
	"errors"
	"net/http"

	"repro/internal/promtext"
)

// handleMetrics renders the same counters as /v1/stats in Prometheus text
// format so a stock scraper can watch a backend without a JSON exporter.
// Metric names are stable API; the router exposes its own vs3router_*
// family on top of these.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	sr := s.statsSnapshot()
	pw := promtext.New()
	id := []string{"server", sr.ServerID}
	pw.Gauge("vs3d_up", "1 while the backend is serving, 0 once draining.", boolGauge(!sr.Draining), id...)
	pw.Gauge("vs3d_uptime_seconds", "Seconds since the server started.", sr.UptimeSeconds, id...)
	pw.Gauge("vs3d_pool_sessions", "Configured verifier sessions.", float64(sr.Pool), id...)
	pw.Gauge("vs3d_in_flight", "Requests currently holding a session.", float64(sr.InFlight), id...)
	pw.Gauge("vs3d_queued", "Requests waiting for a session.", float64(sr.Queued), id...)
	pw.Gauge("vs3d_clients_queued", "Distinct client keys with waiting requests.", float64(sr.ClientsQueued), id...)
	pw.Counter("vs3d_requests_total", "Requests that reached a verifier (batch items included).", float64(sr.Requests), id...)
	pw.Counter("vs3d_shed_total", "Requests shed with 429 (wait queue full).", float64(sr.Rejected), id...)
	pw.Counter("vs3d_aborted_total", "Runs cancelled by deadline or client disconnect.", float64(sr.Aborted), id...)
	pw.Counter("vs3d_truncated_total", "Runs that reported a clipped search.", float64(sr.Truncated), id...)
	pw.Counter("vs3d_batches_total", "Accepted /v1/batch requests.", float64(sr.Batches), id...)
	pw.Counter("vs3d_batch_items_total", "Items across all accepted batches.", float64(sr.BatchItems), id...)
	pw.Gauge("vs3d_rpc_conns", "Open binary rpc connections (0 when -rpc is off).", float64(sr.RPCConns), id...)
	pw.Gauge("vs3d_rpc_streams", "Binary rpc streams currently executing.", float64(sr.RPCStreams), id...)
	pw.Counter("vs3d_rpc_requests_total", "Requests accepted over the binary rpc surface.", float64(sr.RPCRequests), id...)
	pw.Counter("vs3d_rpc_cancels_total", "Binary rpc streams cancelled by their client.", float64(sr.RPCCancels), id...)
	pw.Gauge("vs3d_problems_cached", "Parsed problems resident in the LRU.", float64(sr.ProblemsCached), id...)
	pw.Counter("vs3d_problem_cache_hits_total", "Parsed-problem LRU hits.", float64(sr.ProblemCacheHits), id...)
	pw.Counter("vs3d_smt_queries_total", "From-scratch SMT validity queries across all sessions.", float64(sr.Queries), id...)
	pw.Counter("vs3d_smt_cache_hits_total", "SMT validity-cache hits across all sessions.", float64(sr.CacheHits), id...)
	pw.Counter("vs3d_smt_contexts_total", "Persistent incremental smt.Contexts created.", float64(sr.Contexts), id...)
	pw.Counter("vs3d_assumption_probes_total", "Incremental assumption probes across all sessions.", float64(sr.AssumptionProbes), id...)
	pw.Counter("vs3d_lemma_reuse_total", "Theory-lemma reuse hits across all sessions.", float64(sr.LemmaReuse), id...)
	pw.Counter("vs3d_shared_lemmas_total", "Cross-lane theory-lemma exchanges.", float64(sr.SharedLemmas), id...)
	pw.Counter("vs3d_core_pruned_total", "Lattice candidates pruned by stored unsat cores.", float64(sr.CorePruned), id...)
	pw.Counter("vs3d_core_evicted_total", "Cores evicted from the engine-global store.", float64(sr.CoreEvicted), id...)
	pw.Counter("vs3d_ctx_evicted_total", "Context groups evicted, least recently used first, to keep each solver within its budget.", float64(sr.CtxEvicted), id...)
	pw.Gauge("vs3d_ctx_budget_used", "SAT units held by registered context groups across all sessions.", float64(sr.CtxBudgetUsed), id...)
	pw.Counter("vs3d_cache_evicted_total", "Validity-cache entries evicted, least recently used first, to keep each solver within its budget.", float64(sr.CacheEvicted), id...)
	pw.Counter("vs3d_fm_scratch_total", "From-scratch Fourier-Motzkin eliminations outside persistent checkers.", float64(sr.FMScratch), id...)
	pw.Counter("vs3d_fm_incremental_total", "Elimination runs inside persistent general-LIA checkers.", float64(sr.FMIncremental), id...)
	pw.Counter("vs3d_fm_cube_hits_total", "Theory checks answered from persisted conflict cubes.", float64(sr.FMCubeHits), id...)
	pw.Counter("vs3d_fm_cap_hits_total", "Eliminations truncated at the derived-constraint cap (conservative answers).", float64(sr.FMCapHits), id...)
	pw.Counter("vs3d_dormant_contexts_total", "Persistent contexts retired by Ackermann budget exhaustion.", float64(sr.DormantContexts), id...)
	pw.Gauge("vs3d_store_enabled", "1 when an on-disk knowledge store is attached.", boolGauge(sr.StoreEnabled), id...)
	if sr.StoreEnabled {
		pw.Gauge("vs3d_store_cold_start", "1 when this lifetime found no usable store (fresh dir or sidelined corruption).", boolGauge(sr.StoreColdStart), id...)
		pw.Gauge("vs3d_store_load_millis", "Milliseconds spent warm-loading the store at startup.", float64(sr.StoreLoadMillis), id...)
		pw.Counter("vs3d_store_verdict_hits_total", "SMT validity queries answered from persisted verdicts.", float64(sr.StoreVerdictHits), id...)
		pw.Counter("vs3d_store_cons_hits_total", "Consistency probes answered from persisted verdicts.", float64(sr.StoreConsHits), id...)
		pw.Counter("vs3d_store_warm_lemmas_total", "Theory lemmas seeded into context groups from the store.", float64(sr.StoreWarmLemmas), id...)
		pw.Counter("vs3d_store_warm_cores_total", "Persisted unsat cores promoted into live searches.", float64(sr.StoreWarmCores), id...)
		pw.Gauge("vs3d_store_loaded_searches", "Persisted group-search results loaded at startup.", float64(sr.StoreLoadedSearches), id...)
		pw.Counter("vs3d_search_hits_total", "Group searches answered by replaying a persisted result that re-probed valid.", float64(sr.SearchHits), id...)
		pw.Counter("vs3d_search_rejects_total", "Persisted group-search results that failed their re-probe and were searched afresh.", float64(sr.SearchRejects), id...)
		pw.Counter("vs3d_store_outcome_hits_total", "Verify requests replayed from persisted whole-problem outcomes.", float64(sr.StoreOutcomeHits), id...)
		pw.Counter("vs3d_store_appended_total", "Records appended to the write-behind queue this lifetime.", float64(sr.StoreAppended), id...)
		pw.Counter("vs3d_store_dropped_total", "Records dropped because the write-behind queue was full.", float64(sr.StoreDropped), id...)
		pw.Gauge("vs3d_store_queue_depth", "Write-behind records waiting for the next flush.", float64(sr.StoreQueueDepth), id...)
		pw.Counter("vs3d_store_flushes_total", "Write-behind flushes (ticker, Flush, and Close).", float64(sr.StoreFlushes), id...)
		pw.Counter("vs3d_store_flush_errors_total", "Write-behind flushes that failed (next load truncates any torn tail).", float64(sr.StoreFlushErrors), id...)
		pw.Counter("vs3d_store_flush_retries_total", "Failed flush batches requeued for a later attempt.", float64(sr.StoreFlushRetry), id...)
		pw.Counter("vs3d_store_compactions_total", "Generational log compactions completed.", float64(sr.StoreCompactions), id...)
		pw.Counter("vs3d_store_compact_errors_total", "Compactions abandoned on error (old generation left in place).", float64(sr.StoreCompactErrors), id...)
		pw.Counter("vs3d_store_reclaimed_bytes_total", "Log bytes reclaimed by compaction.", float64(sr.StoreReclaimedBytes), id...)
		pw.Gauge("vs3d_store_log_bytes", "Knowledge log size on disk.", float64(sr.StoreLogBytes), id...)
		pw.Gauge("vs3d_store_live_bytes", "Bytes of live, deduplicated records in the log.", float64(sr.StoreLiveBytes), id...)
	}

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
