package stats

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/promtext"
)

// Counter names one row of the registry (Rows): a counter or gauge that an
// engine session, vs3d, its knowledge store, vs3router or one of the
// router's backends reports. Rows is the only place a counter is declared;
// every surface — vs3d's /v1/stats and /metrics, the router's, the
// per-request stats object, vs3 -stats and bench.Measurement — renders by
// iterating it, so a new counter is one row plus one increment. Rows with a
// Prometheus family appear on /metrics in this order.
type Counter int

const (
	// vs3d's serving state (Server).
	Up Counter = iota
	Draining
	Uptime
	Pool
	QueueCapacity
	InFlight
	Queued
	ClientsQueued
	Requests
	Rejected
	Aborted
	Truncated
	Batches
	BatchItems
	RPCConns
	RPCStreams
	RPCRequests
	RPCCancels
	ProblemsCached
	ProblemCacheHits

	// One verifier session's solver and engine (Engine).
	Queries
	CacheHits
	Contexts
	AssumptionProbes
	LemmaReuse
	CorePruned
	CoreEvicted
	CtxEvicted
	CtxBudgetUsed
	CacheEvicted
	GroundPlans
	PlanProbes
	PlanFallbacks
	GroundTime
	FMScratch
	FMIncremental
	FMCapHits
	DormantContexts
	SATDecisions
	SATPropagations
	TheoryConflicts

	// The knowledge store, as vs3d reports it.
	StoreEnabled
	StoreColdStart
	StoreLoadMillis
	StoreVerdictHits
	StoreConsHits
	StoreWarmLemmas
	StoreWarmCores
	StoreLoadedSearches
	SearchHits
	SearchRejects
	StoreOutcomeHits
	StoreAppended
	StoreDeduped
	StoreDropped
	StoreQueueDepth
	StoreFlushes
	StoreFlushErrors
	StoreFlushRetries
	StoreCompactions
	StoreCompactErrors
	StoreReclaimedBytes
	StoreLogBytes
	StoreLiveBytes
	StoreDigestGen
	StoreMisses

	// vs3router (Router), and each of its backends (Backend).
	RouterUptime
	RouterRequests
	RouterBatches
	RouterBatchItems
	RouterFailovers
	RouterNoBackend
	RouterHedgeFired
	RouterHedgeWon
	RouterHedgeCanceled
	RouterStoreAware
	RouterStoreHits
	BackendHealthy
	BackendRouted
	BackendFailovers
	BackendWeight
	BackendRPCConns
	BackendDigestGen
	RouterRPCConns

	NumCounters
)

// Kind is a row's Prometheus type.
type Kind uint8

const (
	Count Kind = iota // monotonically increasing; its family ends in _total
	Gauge             // goes up and down
)

// Source says who records a row, and so which surface renders it.
type Source uint8

const (
	Engine  Source = iota // a verifier session's smt.Solver and optimal.Engine, through Counters
	Server                // vs3d's own serving state
	Store                 // vs3d's knowledge store (store.Stats)
	Router                // vs3router's own state
	Backend               // one backend's row in the router's /v1/stats and its vs3router_backend_* series
)

// Unit says how a row's value renders.
type Unit uint8

const (
	Plain Unit = iota // as is
	Nanos             // recorded in nanoseconds; JSON in milliseconds, Prometheus in seconds
	Bool              // 0 or 1; JSON true or false
)

// Show says where a row appears.
type Show uint8

const (
	Always    Show = iota
	OmitZero       // JSON omits the key while the value is zero
	WithStore      // only while a store is attached; JSON also omits it while zero
	Hidden         // no /v1/stats key or /metrics family: only in Snapshot, vs3 -stats and bench
)

// Row declares one counter or gauge.
type Row struct {
	Key    string // JSON key ("" = none)
	Metric string // Prometheus family ("" = none)
	Help   string
	Kind   Kind
	Src    Source
	Unit   Unit
	Show   Show
}

// Rows is the registry, indexed by Counter.
var Rows = [NumCounters]Row{
	Up:               {"", "vs3d_up", "1 while the backend is serving, 0 once draining.", Gauge, Server, Bool, Always},
	Draining:         {"draining", "", "True once the backend has started draining.", Gauge, Server, Bool, Always},
	Uptime:           {"uptime_seconds", "vs3d_uptime_seconds", "Seconds since the server started.", Gauge, Server, Plain, Always},
	Pool:             {"pool", "vs3d_pool_sessions", "Configured verifier sessions.", Gauge, Server, Plain, Always},
	QueueCapacity:    {"queue_capacity", "", "Requests that may wait for a session beyond those in flight.", Gauge, Server, Plain, Always},
	InFlight:         {"in_flight", "vs3d_in_flight", "Requests currently holding a session.", Gauge, Server, Plain, Always},
	Queued:           {"queued", "vs3d_queued", "Requests waiting for a session.", Gauge, Server, Plain, Always},
	ClientsQueued:    {"clients_queued", "vs3d_clients_queued", "Distinct client keys with waiting requests.", Gauge, Server, Plain, Always},
	Requests:         {"requests", "vs3d_requests_total", "Requests that reached a verifier (batch items included).", Count, Server, Plain, Always},
	Rejected:         {"rejected", "vs3d_shed_total", "Requests shed with 429 (wait queue full).", Count, Server, Plain, Always},
	Aborted:          {"aborted", "vs3d_aborted_total", "Runs cancelled by deadline or client disconnect.", Count, Server, Plain, Always},
	Truncated:        {"truncated", "vs3d_truncated_total", "Runs that reported a clipped search.", Count, Server, Plain, Always},
	Batches:          {"batches", "vs3d_batches_total", "Accepted /v1/batch requests.", Count, Server, Plain, Always},
	BatchItems:       {"batch_items", "vs3d_batch_items_total", "Items across all accepted batches.", Count, Server, Plain, Always},
	RPCConns:         {"rpc_conns", "vs3d_rpc_conns", "Open binary rpc connections (0 when -rpc is off).", Gauge, Server, Plain, Always},
	RPCStreams:       {"rpc_streams", "vs3d_rpc_streams", "Binary rpc streams currently executing.", Gauge, Server, Plain, Always},
	RPCRequests:      {"rpc_requests", "vs3d_rpc_requests_total", "Requests accepted over the binary rpc surface.", Count, Server, Plain, Always},
	RPCCancels:       {"rpc_cancels", "vs3d_rpc_cancels_total", "Binary rpc streams cancelled by their client.", Count, Server, Plain, Always},
	ProblemsCached:   {"problems_cached", "vs3d_problems_cached", "Parsed problems resident in the LRU.", Gauge, Server, Plain, Always},
	ProblemCacheHits: {"problem_cache_hits", "vs3d_problem_cache_hits_total", "Parsed-problem LRU hits.", Count, Server, Plain, Always},

	Queries:          {"smt_queries", "vs3d_smt_queries_total", "From-scratch SMT validity queries across all sessions.", Count, Engine, Plain, Always},
	CacheHits:        {"smt_cache_hits", "vs3d_smt_cache_hits_total", "SMT validity-cache hits across all sessions.", Count, Engine, Plain, Always},
	Contexts:         {"smt_contexts", "vs3d_smt_contexts_total", "Persistent incremental smt.Contexts created.", Count, Engine, Plain, Always},
	AssumptionProbes: {"assumption_probes", "vs3d_assumption_probes_total", "Incremental assumption probes across all sessions.", Count, Engine, Plain, Always},
	LemmaReuse:       {"lemma_reuse", "vs3d_lemma_reuse_total", "Theory-lemma reuse hits across all sessions.", Count, Engine, Plain, Always},
	CorePruned:       {"core_pruned", "vs3d_core_pruned_total", "Lattice candidates pruned by stored unsat cores.", Count, Engine, Plain, Always},
	CoreEvicted:      {"core_evicted", "vs3d_core_evicted_total", "Cores evicted from the engine-global store.", Count, Engine, Plain, Always},
	CtxEvicted:       {"ctx_evicted", "vs3d_ctx_evicted_total", "Context groups evicted, least recently used first, to keep each solver within its budget.", Count, Engine, Plain, Always},
	CtxBudgetUsed:    {"ctx_budget_used", "vs3d_ctx_budget_used", "SAT units held by registered context groups across all sessions.", Gauge, Engine, Plain, Always},
	CacheEvicted:     {"cache_evicted", "vs3d_cache_evicted_total", "Validity-cache entries evicted, least recently used first, to keep each solver within its budget.", Count, Engine, Plain, Always},
	GroundPlans:      {"ground_plans", "vs3d_ground_plans_total", "Grounding plans compiled, one per context group that grounds a probe.", Count, Engine, Plain, Always},
	PlanProbes:       {"plan_probes", "vs3d_plan_probes_total", "Probes grounded from their context group's plan.", Count, Engine, Plain, Always},
	PlanFallbacks:    {"plan_fallbacks", "vs3d_plan_fallbacks_total", "Probes whose fill their group's plan could not express, grounded whole.", Count, Engine, Plain, Always},
	GroundTime:       {"ground_ms", "vs3d_ground_seconds_total", "Time spent grounding probes, on every path.", Count, Engine, Nanos, Always},
	FMScratch:        {"fm_scratch", "vs3d_fm_scratch_total", "From-scratch Fourier-Motzkin eliminations outside persistent checkers.", Count, Engine, Plain, Always},
	FMIncremental:    {"fm_incremental", "vs3d_fm_incremental_total", "Elimination runs inside persistent general-LIA checkers.", Count, Engine, Plain, Always},
	FMCapHits:        {"fm_cap_hits", "vs3d_fm_cap_hits_total", "Eliminations truncated at the derived-constraint cap (conservative answers).", Count, Engine, Plain, Always},
	DormantContexts:  {"dormant_contexts", "vs3d_dormant_contexts_total", "Persistent contexts retired by Ackermann budget exhaustion.", Count, Engine, Plain, Always},
	SATDecisions:     {"sat_decisions", "vs3d_sat_decisions_total", "SAT branch decisions of the SMT layer's searches.", Count, Engine, Plain, Always},
	SATPropagations:  {"sat_propagations", "vs3d_sat_propagations_total", "Literals the SMT layer's SAT searches assigned by unit propagation.", Count, Engine, Plain, Always},
	TheoryConflicts:  {"theory_conflicts", "vs3d_theory_conflicts_total", "Theory lemmas the SMT layer's SAT searches resolved, one per theory conflict.", Count, Engine, Plain, Always},

	StoreEnabled:        {"store_enabled", "vs3d_store_enabled", "1 when an on-disk knowledge store is attached.", Gauge, Server, Bool, Always},
	StoreColdStart:      {"store_cold_start", "vs3d_store_cold_start", "1 when this lifetime found no usable store (fresh dir or sidelined corruption).", Gauge, Store, Bool, WithStore},
	StoreLoadMillis:     {"store_load_millis", "vs3d_store_load_millis", "Milliseconds spent warm-loading the store at startup.", Gauge, Store, Plain, WithStore},
	StoreVerdictHits:    {"store_verdict_hits", "vs3d_store_verdict_hits_total", "SMT validity queries answered from persisted verdicts.", Count, Engine, Plain, WithStore},
	StoreConsHits:       {"store_cons_hits", "vs3d_store_cons_hits_total", "Consistency probes answered from persisted verdicts.", Count, Engine, Plain, WithStore},
	StoreWarmLemmas:     {"store_warm_lemmas", "vs3d_store_warm_lemmas_total", "Theory lemmas seeded into context groups from the store.", Count, Engine, Plain, WithStore},
	StoreWarmCores:      {"store_warm_cores", "vs3d_store_warm_cores_total", "Persisted unsat cores promoted into live searches.", Count, Engine, Plain, WithStore},
	StoreLoadedSearches: {"store_loaded_searches", "vs3d_store_loaded_searches", "Persisted group-search results loaded at startup.", Gauge, Store, Plain, WithStore},
	SearchHits:          {"search_hits", "vs3d_search_hits_total", "Group searches answered by replaying a persisted result that re-probed valid.", Count, Engine, Plain, WithStore},
	SearchRejects:       {"search_rejects", "vs3d_search_rejects_total", "Persisted group-search results that failed their re-probe and were searched afresh.", Count, Engine, Plain, WithStore},
	StoreOutcomeHits:    {"store_outcome_hits", "vs3d_store_outcome_hits_total", "Verify requests replayed from persisted whole-problem outcomes.", Count, Server, Plain, WithStore},
	StoreAppended:       {"store_appended", "vs3d_store_appended_total", "Records appended to the write-behind queue this lifetime.", Count, Store, Plain, WithStore},
	StoreDeduped:        {"store_deduped", "", "Appends skipped because an identical record exists.", Count, Store, Plain, WithStore},
	StoreDropped:        {"store_dropped", "vs3d_store_dropped_total", "Records dropped because the write-behind queue was full.", Count, Store, Plain, WithStore},
	StoreQueueDepth:     {"store_queue_depth", "vs3d_store_queue_depth", "Write-behind records waiting for the next flush.", Gauge, Store, Plain, WithStore},
	StoreFlushes:        {"store_flushes", "vs3d_store_flushes_total", "Write-behind flushes (ticker, Flush, and Close).", Count, Store, Plain, WithStore},
	StoreFlushErrors:    {"store_flush_errors", "vs3d_store_flush_errors_total", "Write-behind flushes that failed (next load truncates any torn tail).", Count, Store, Plain, WithStore},
	StoreFlushRetries:   {"store_flush_retries", "vs3d_store_flush_retries_total", "Failed flush batches requeued for a later attempt.", Count, Store, Plain, WithStore},
	StoreCompactions:    {"store_compactions", "vs3d_store_compactions_total", "Generational log compactions completed.", Count, Store, Plain, WithStore},
	StoreCompactErrors:  {"store_compact_errors", "vs3d_store_compact_errors_total", "Compactions abandoned on error (old generation left in place).", Count, Store, Plain, WithStore},
	StoreReclaimedBytes: {"store_reclaimed_bytes", "vs3d_store_reclaimed_bytes_total", "Log bytes reclaimed by compaction.", Count, Store, Plain, WithStore},
	StoreLogBytes:       {"store_log_bytes", "vs3d_store_log_bytes", "Knowledge log size on disk.", Gauge, Store, Plain, WithStore},
	StoreLiveBytes:      {"store_live_bytes", "vs3d_store_live_bytes", "Bytes of live, deduplicated records in the log.", Gauge, Store, Plain, WithStore},
	StoreDigestGen:      {"store_digest_gen", "", "Generation of the solved-outcome digest (it changes exactly when the digest may).", Gauge, Store, Plain, WithStore},
	StoreMisses:         {"store_misses", "", "Knowledge-store verdict lookups (validity and consistency) that found nothing.", Count, Engine, Plain, Hidden},

	RouterUptime:        {"uptime_seconds", "vs3router_uptime_seconds", "Seconds since the router started.", Gauge, Router, Plain, Always},
	RouterRequests:      {"requests_proxied", "vs3router_requests_total", "Single requests proxied.", Count, Router, Plain, Always},
	RouterBatches:       {"batches", "vs3router_batches_total", "Batch requests accepted.", Count, Router, Plain, Always},
	RouterBatchItems:    {"batch_items", "vs3router_batch_items_total", "Items across all batches.", Count, Router, Plain, Always},
	RouterFailovers:     {"failovers", "vs3router_failovers_total", "Failover hops after backend transport failures.", Count, Router, Plain, Always},
	RouterNoBackend:     {"no_backend", "vs3router_no_backend_total", "Requests/items failed because no backend answered.", Count, Router, Plain, Always},
	RouterHedgeFired:    {"hedge_fired", "vs3router_hedge_fired_total", "Hedge requests fired at ring successors.", Count, Router, Plain, Always},
	RouterHedgeWon:      {"hedge_won", "vs3router_hedge_won_total", "Hedged races the successor answered first.", Count, Router, Plain, Always},
	RouterHedgeCanceled: {"hedge_canceled", "vs3router_hedge_canceled_total", "Losing sides cancelled after the other side won.", Count, Router, Plain, Always},
	RouterStoreAware:    {"store_aware", "", "True when placement consults the backends' solved-outcome digests.", Gauge, Router, Bool, Always},
	RouterStoreHits:     {"route_store_hits", "vs3router_store_hits_total", "Placements moved off the ring owner by a solved-outcome digest claim.", Count, Router, Plain, Always},
	BackendHealthy:      {"healthy", "vs3router_backend_healthy", "1 while the backend passes health checks.", Gauge, Backend, Bool, Always},
	BackendRouted:       {"routed", "vs3router_backend_routed_total", "Requests and batch items routed to the backend.", Count, Backend, Plain, Always},
	BackendFailovers:    {"failovers", "vs3router_backend_failovers_total", "Requests moved off the backend after transport failures.", Count, Backend, Plain, Always},
	BackendWeight:       {"weight", "vs3router_backend_weight", "Configured ring-share weight.", Gauge, Backend, Plain, Always},
	BackendRPCConns:     {"rpc_conns", "vs3router_backend_rpc_conns", "Open binary rpc connections to the backend.", Gauge, Backend, Plain, OmitZero},
	BackendDigestGen:    {"store_digest_gen", "", "Solved-outcome digest generation last fetched from the backend (0 = none held).", Gauge, Backend, Plain, OmitZero},
	RouterRPCConns:      {"rpc_conns", "vs3router_rpc_conns", "Open binary rpc connections across all backends.", Gauge, Router, Plain, Always},
}

// Surface is a stats endpoint's set of rows: vs3d's (Engine, Server and
// Store rows), the router's own, or one router backend row's.
type Surface uint8

const (
	Daemon Surface = iota
	Front
	FrontBackend
)

// surface returns the endpoint a source's rows render on.
func (s Source) surface() Surface {
	switch s {
	case Router:
		return Front
	case Backend:
		return FrontBackend
	}
	return Daemon
}

// Counters is one atomic int64 per row. A verifier session's solver and
// engine share one (Solver.Counters) and count every Engine row there; the
// server, the router and each router backend count their own rows in
// theirs. A nil *Counters counts nothing.
type Counters [NumCounters]atomic.Int64

// Add adds n to row k.
func (c *Counters) Add(k Counter, n int64) {
	if c != nil {
		c[k].Add(n)
	}
}

// Load reads every row.
func (c *Counters) Load() Values {
	var v Values
	for k := range c {
		v[k] = float64(c[k].Load())
	}
	return v
}

// Values is one reading of the registry, indexed by Counter.
type Values [NumCounters]float64

// Add adds o into v, row by row.
func (v *Values) Add(o *Values) {
	for k := range v {
		v[k] += o[k]
	}
}

// Sub returns v − o, row by row: the activity between two readings.
func (v Values) Sub(o Values) Values {
	for k := range v {
		v[k] -= o[k]
	}
	return v
}

// SetBool stores b in a Bool row.
func (v *Values) SetBool(k Counter, b bool) {
	v[k] = 0
	if b {
		v[k] = 1
	}
}

// shown reports whether row k appears on its surface in reading v: never
// when Hidden, and a WithStore row only while v reads a store attached.
func (v *Values) shown(k Counter) bool {
	switch Rows[k].Show {
	case Hidden:
		return false
	case WithStore:
		return v[StoreEnabled] != 0
	}
	return true
}

// PutJSON sets m[key] for every shown row of surface sf that has a JSON
// key, in its JSON unit, leaving out OmitZero and WithStore rows that read
// zero.
func (v *Values) PutJSON(m map[string]any, sf Surface) {
	for k := range Counter(NumCounters) {
		r := &Rows[k]
		if r.Key == "" || r.Src.surface() != sf || !v.shown(k) {
			continue
		}
		if v[k] == 0 && (r.Show == OmitZero || r.Show == WithStore) {
			continue
		}
		m[r.Key] = r.json(v[k])
	}
}

func (r *Row) json(x float64) any {
	switch r.Unit {
	case Bool:
		return x != 0
	case Nanos:
		return x / float64(time.Millisecond)
	}
	return x
}

// ParseJSON reads a /v1/stats body of surface sf back into a reading: the
// inverse of PutJSON (a missing key reads zero).
func ParseJSON(body map[string]any, sf Surface) Values {
	var v Values
	for k := range Counter(NumCounters) {
		r := &Rows[k]
		if r.Key == "" || r.Src.surface() != sf {
			continue
		}
		switch x := body[r.Key].(type) {
		case bool:
			v.SetBool(k, x)
		case float64:
			if r.Unit == Nanos {
				x *= float64(time.Millisecond)
			}
			v[k] = x
		}
	}
	return v
}

// Reading is one labelled reading of a surface's rows for WriteMetrics.
type Reading struct {
	Surface Surface
	V       *Values
	Labels  []string // alternating key, value pairs
}

// WriteMetrics records every shown row with a Prometheus family, in table
// order, one sample per reading of the row's surface.
func WriteMetrics(pw *promtext.Writer, readings ...Reading) {
	for k := range Counter(NumCounters) {
		r := &Rows[k]
		if r.Metric == "" {
			continue
		}
		for _, rd := range readings {
			if r.Src.surface() != rd.Surface || !rd.V.shown(k) {
				continue
			}
			x := rd.V[k]
			if r.Unit == Nanos {
				x /= float64(time.Second)
			}
			if r.Kind == Count {
				pw.Counter(r.Metric, r.Help, x, rd.Labels...)
			} else {
				pw.Gauge(r.Metric, r.Help, x, rd.Labels...)
			}
		}
	}
}

// PutFleetJSON sets m[key] for every FleetTotals row of v, a sum of vs3d
// readings, leaving out WithStore rows that read zero as vs3d does.
func (v *Values) PutFleetJSON(m map[string]any) {
	for _, k := range FleetTotals {
		if r := &Rows[k]; v[k] != 0 || r.Show != WithStore {
			m[r.Key] = r.json(v[k])
		}
	}
}

// FleetTotals lists the rows a router sums over its backends' /v1/stats
// bodies: every shown vs3d counter whose key the router's own body does not
// use.
var FleetTotals = fleetTotals()

func fleetTotals() []Counter {
	own := map[string]bool{}
	for _, r := range Rows {
		if r.Src.surface() == Front {
			own[r.Key] = true
		}
	}
	var out []Counter
	for k, r := range Rows {
		if r.Src.surface() == Daemon && r.Kind == Count && r.Show != Hidden && r.Key != "" && !own[r.Key] {
			out = append(out, Counter(k))
		}
	}
	return out
}

// WriteText prints every Engine row, one "key value" line each, in JSON
// units: what one verifier's run counted.
func (v *Values) WriteText(w io.Writer) {
	for k := range Counter(NumCounters) {
		if r := &Rows[k]; r.Src == Engine {
			x := r.json(v[k])
			if f, ok := x.(float64); ok {
				x = strconv.FormatFloat(f, 'f', -1, 64)
			}
			fmt.Fprintf(w, "  %-20s %v\n", r.Key, x)
		}
	}
}

// Snapshot is the wire form of one scope of engine work: the count of each
// Figure 4–9 histogram and a reading of the engine counters. It is the
// per-request stats object of every VerifyResponse (and of the outcomes the
// store persists) and /v1/stats's collector, so its keys are stable API.
// smt_queries counts Figure 4 latency samples — every decided check,
// assumption probes included — unlike the top-level smt_queries of
// /v1/stats, which counts from-scratch decisions only. Snapshots add (fleet
// aggregation) and subtract (request-scoped deltas).
type Snapshot struct {
	Queries        int    `json:"smt_queries"`
	QueryBuckets   [5]int `json:"smt_query_latency_buckets"`
	NegSolutions   int    `json:"neg_solutions"`
	OptCalls       int    `json:"optimal_calls"`
	CandidateSteps int    `json:"candidate_steps"`
	SATFormulas    int    `json:"sat_formulas"`
	UnsatCores     int    `json:"unsat_cores"`
	CoreEvictions  int    `json:"core_evictions"`
	FMCapHits      int    `json:"fm_cap_hits"`
	StoreHits      int    `json:"store_hits"`
	StoreMisses    int    `json:"store_misses"`
	// Grounding: plans compiled, probes grounded from a plan, probes a plan
	// could not express, and milliseconds spent grounding on every path.
	GroundPlans   int     `json:"ground_plans"`
	PlanProbes    int     `json:"plan_probes"`
	PlanFallbacks int     `json:"plan_fallbacks"`
	GroundMS      float64 `json:"ground_ms"`
	// SAT search work of the SMT layer: branch decisions and literals
	// assigned by unit propagation.
	SATDecisions    int64 `json:"sat_decisions"`
	SATPropagations int64 `json:"sat_propagations"`
}

// NewSnapshot summarizes a collector's histograms (nil reads empty) and a
// reading of the engine counters.
func NewSnapshot(c *Collector, v *Values) Snapshot {
	s := c.Snapshot()
	s.CoreEvictions = int(v[CoreEvicted])
	s.FMCapHits = int(v[FMCapHits])
	s.StoreHits = int(v[StoreVerdictHits] + v[StoreConsHits])
	s.StoreMisses = int(v[StoreMisses])
	s.GroundPlans = int(v[GroundPlans])
	s.PlanProbes = int(v[PlanProbes])
	s.PlanFallbacks = int(v[PlanFallbacks])
	s.GroundMS = v[GroundTime] / float64(time.Millisecond)
	s.SATDecisions = int64(v[SATDecisions])
	s.SATPropagations = int64(v[SATPropagations])
	return s
}

// Add returns the field-wise sum of two snapshots.
func (s Snapshot) Add(o Snapshot) Snapshot { return s.combine(o, 1) }

// Sub returns the field-wise difference s − o: the activity recorded between
// the moment o was taken and the moment s was taken on the same scope.
func (s Snapshot) Sub(o Snapshot) Snapshot { return s.combine(o, -1) }

func (s Snapshot) combine(o Snapshot, sign int) Snapshot {
	s.Queries += sign * o.Queries
	for i := range s.QueryBuckets {
		s.QueryBuckets[i] += sign * o.QueryBuckets[i]
	}
	s.NegSolutions += sign * o.NegSolutions
	s.OptCalls += sign * o.OptCalls
	s.CandidateSteps += sign * o.CandidateSteps
	s.SATFormulas += sign * o.SATFormulas
	s.UnsatCores += sign * o.UnsatCores
	s.CoreEvictions += sign * o.CoreEvictions
	s.FMCapHits += sign * o.FMCapHits
	s.StoreHits += sign * o.StoreHits
	s.StoreMisses += sign * o.StoreMisses
	s.GroundPlans += sign * o.GroundPlans
	s.PlanProbes += sign * o.PlanProbes
	s.PlanFallbacks += sign * o.PlanFallbacks
	s.GroundMS += float64(sign) * o.GroundMS
	s.SATDecisions += int64(sign) * o.SATDecisions
	s.SATPropagations += int64(sign) * o.SATPropagations
	return s
}
