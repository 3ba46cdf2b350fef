// Package serve wraps core.Verifier in a long-lived, concurrent HTTP
// daemon. A per-process CLI run throws away every cache the engine builds —
// interned formulas, compiled fillers, persistent smt.Context lane groups,
// the engine-global unsat-core store — with the process; the daemon keeps a
// pool of verifier sessions alive so repeated and related problems amortize
// that work across requests (see DESIGN.md §12–13).
//
// API (JSON over HTTP):
//
//	POST /v1/verify         {"spec": "<vs3 source>", "method": "lfp|gfp|cfp", "timeout_ms": 5000}
//	POST /v1/preconditions  {"spec": "<vs3 source>", "timeout_ms": 5000}
//	POST /v1/batch          {"items": [<verify request>, ...]} → NDJSON stream of per-item results
//	POST /v1/compact        rewrite the knowledge store's live set to a fresh generation
//	GET  /v1/stats          server-lifetime counters (pool, solver caches, merged collector)
//	GET  /metrics           the same counters in Prometheus text format
//	GET  /healthz           liveness probe (503 once draining)
//
// core.Verifier is not safe for concurrent use, so the server owns a fixed
// pool of sessions, each a verifier bound to one request at a time. All
// sessions share one unsat-core store (optimal.CoreStore) and the
// process-global formula interner; parsed problems (with their compiled VC
// skeletons) are shared through an LRU cache. Waiting requests are admitted
// round-robin across client keys (fairQueue), so one bulk client cannot
// starve another. Each request's deadline and client disconnect are bridged
// into the verifier's cooperative Stop flag, so an abandoned request stops
// consuming CPU promptly and is reported as Aborted (HTTP 504) rather than
// as a false "no invariant found". When every session is busy and the wait
// queue is full the server sheds load with HTTP 429 and a Retry-After hint.
//
// Every response carries X-VS3-Backend (this server's identity) and, once
// the spec is resolved, X-VS3-Problem-Key (the canonical routing key, see
// ProblemKey) — the hooks cmd/vs3router uses to prove affinity end to end.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/memo"
	"repro/internal/optimal"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/template"
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// ID identifies this backend in X-VS3-Backend headers, /v1/stats, and
	// /metrics (default "vs3d-<host>-<pid>"). The router reports per-backend
	// traffic under this name.
	ID string
	// Pool is the number of verifier sessions (default GOMAXPROCS). Each
	// session serves one request at a time; sessions share the formula
	// interner, one unsat-core store, and the parsed-problem cache, but
	// keep their own SMT solver (validity cache, incremental contexts).
	Pool int
	// Queue bounds how many requests may wait for a session beyond the ones
	// in flight (default 4×Pool). Beyond it the server answers 429.
	Queue int
	// DefaultTimeout bounds a request that does not set timeout_ms
	// (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts (default 5m).
	MaxTimeout time.Duration
	// MaxBatch caps the number of items in one /v1/batch request
	// (default 1024).
	MaxBatch int
	// Core is the base verifier configuration. The server owns cancellation
	// and measurement: Fixpoint.Stop, SMT.Stop, CBI.Stop, Stats, and Cores
	// are overwritten per session.
	Core core.Config
	// Store, when non-nil, is the on-disk knowledge base shared by every
	// pooled session (Core.Knowledge is overwritten with it). Beyond the
	// engine-level warm state it carries whole solved-problem outcomes keyed
	// by (X-VS3-Problem-Key, method), which RunVerify replays without leasing
	// a session. The caller (cmd/vs3d) owns the store's lifecycle: it must be
	// opened with Params = Core.SMT.StoreParams() and closed after Shutdown;
	// StartDrain flushes it before /healthz flips to 503.
	Store *store.Store
}

func (c Config) normalize() Config {
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "localhost"
		}
		c.ID = fmt.Sprintf("vs3d-%s-%d", host, os.Getpid())
	}
	if c.Pool <= 0 {
		c.Pool = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Pool
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	return c
}

// maxSpecBytes bounds a single-request body; vs3 spec files are a few KB.
const maxSpecBytes = 1 << 20

// maxCachedProblems bounds the parsed-problem LRU.
const maxCachedProblems = 256

// ProblemKey returns the canonical cache/affinity key for a spec source:
// the hex SHA-256 of its bytes. The router hashes this key onto its backend
// ring, the problem LRU indexes by it, and backends echo it in the
// X-VS3-Problem-Key response header so affinity is observable end to end.
func ProblemKey(src string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(src)))
}

// ClientKey extracts the fair-queueing identity of a request: the
// X-VS3-Client header when present (set by trusted front tiers like
// vs3router), else the remote IP.
func ClientKey(r *http.Request) string {
	if k := r.Header.Get("X-VS3-Client"); k != "" {
		return k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// session is one pooled verifier. The verifier is constructed once (so its
// solver's caches live as long as the server) with a Stop hook that reads
// the session's current request context through an atomic cell; bind/unbind
// swap the context around each request.
type session struct {
	v   *core.Verifier
	col *stats.Collector // session-lifetime histograms (snapshot-diffed per request)
	ctx atomic.Pointer[context.Context]
}

func (s *session) stop() bool {
	ctx := *s.ctx.Load()
	return ctx.Err() != nil
}

func (s *session) bind(ctx context.Context) { s.ctx.Store(&ctx) }

// snapshot reads the session's collector and engine counters; a request's
// stats object is the difference of two.
func (s *session) snapshot() stats.Snapshot {
	v := s.v.Engine().S.Counters().Load()
	return stats.NewSnapshot(s.col, &v)
}
func (s *session) unbind() { s.bind(context.Background()) }

// Server is the verification service.
type Server struct {
	cfg      Config
	fq       *fairQueue
	sessions []*session // stable list, for stats aggregation

	mu  sync.Mutex
	agg stats.Snapshot // request-scoped deltas summed server-lifetime (/v1/stats collector)

	// problems caches parsed problems by ProblemKey. Problems carry their
	// compiled per-path VC skeletons, so keeping the hot set resident (least
	// recently used eviction) preserves the warm-path economics under
	// churn: a problem the fleet keeps asking about survives a scan of
	// one-off specs.
	problems *memo.Table[string, *spec.Problem]

	started  time.Time
	draining atomic.Bool

	rpcAddr  atomic.Pointer[string] // advertised rpc listen address ("" = none)
	rpcStats atomic.Pointer[func() (conns, streams, requests, cancels int64)]

	ctr stats.Counters // the registry's Server rows the server counts itself
}

// New returns a Server with cfg.Pool warmed-up sessions.
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg:      cfg,
		problems: memo.New[string, *spec.Problem](maxCachedProblems),
		started:  time.Now(),
	}
	shared := cfg.Core.Cores
	if shared == nil {
		shared = optimal.NewCoreStore()
	}
	for i := 0; i < cfg.Pool; i++ {
		sess := &session{col: stats.New()}
		sess.unbind()
		cc := cfg.Core
		cc.Stats = sess.col
		cc.Cores = shared
		cc.Knowledge = cfg.Store
		cc.Fixpoint.Stop = sess.stop
		cc.SMT.Stop = nil // re-derived from Fixpoint.Stop by core.New
		cc.CBI.Stop = nil
		sess.v = core.New(cc)
		s.sessions = append(s.sessions, sess)
	}
	s.fq = newFairQueue(s.sessions, cfg.Queue)
	return s
}

// ID returns the server's backend identity.
func (s *Server) ID() string { return s.cfg.ID }

// AdvertiseRPC publishes addr (":port" or "host:port") as this backend's
// binary rpc endpoint. Every HTTP response then carries it in the X-VS3-RPC
// header, which the router's health sweep reads to find the backend's
// request wire — a router sends requests only over VS3R (a ":port" value is
// joined with the backend URL's host). cmd/vs3d calls this once the -rpc
// listener is bound.
func (s *Server) AdvertiseRPC(addr string) { s.rpcAddr.Store(&addr) }

// SetRPCStats installs the rpc server's stats func so /v1/stats and /metrics
// report the binary surface's connection and stream gauges.
func (s *Server) SetRPCStats(fn func() (conns, streams, requests, cancels int64)) {
	s.rpcStats.Store(&fn)
}

// StartDrain flips /healthz to 503 so load balancers and the router stop
// sending new work; in-flight requests finish normally. cmd/vs3d calls this
// on SIGTERM before http.Server.Shutdown. The knowledge store's write-behind
// queue is flushed and fsynced first, so everything accepted before the
// drain signal is durable even if the process is killed mid-shutdown;
// records appended by still-in-flight requests are caught by the final
// store.Close after Shutdown returns.
func (s *Server) StartDrain() {
	if s.cfg.Store != nil {
		_ = s.cfg.Store.Flush()
	}
	s.draining.Store(true)
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the server's HTTP mux. Every response carries the
// X-VS3-Backend identity header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/verify", s.handleVerify)
	mux.HandleFunc("/v1/preconditions", s.handlePreconditions)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/compact", s.handleCompact)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if st := s.cfg.Store; st != nil {
			// The outcome-digest generation rides on the probe the router
			// already makes, so its sweep refetches the (larger) digest only
			// when this header changes.
			w.Header().Set("X-VS3-Store-Gen", strconv.FormatUint(st.DigestGen(), 10))
		}
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	id := s.cfg.ID
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-VS3-Backend", id)
		if addr := s.rpcAddr.Load(); addr != nil && *addr != "" {
			w.Header().Set("X-VS3-RPC", *addr)
		}
		mux.ServeHTTP(w, r)
	})
}

var errBusy = errors.New("serve: all sessions busy and the wait queue is full")

// problem parses (or re-uses a previously parsed) spec.Problem and returns
// it with its canonical key. Problems are immutable after construction and
// documented safe for concurrent use, so a cache hit shares the compiled
// per-path VC skeletons across sessions.
func (s *Server) problem(src string) (*spec.Problem, string, error) {
	key := ProblemKey(src)
	if p, ok := s.problems.Load(key); ok {
		s.ctr.Add(stats.ProblemCacheHits, 1)
		return p, key, nil
	}
	sf, err := lang.ParseSpecFile(src)
	if err != nil {
		return nil, key, err
	}
	p := &spec.Problem{
		Prog:      sf.Program,
		Templates: sf.Templates,
		Q:         template.Domain(sf.Predicates),
	}
	if err := p.Validate(); err != nil {
		return nil, key, err
	}
	p, _ = s.problems.LoadOrStore(key, p)
	return p, key, nil
}

// timeout resolves a request's effective deadline.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// VerifyRequest is the body of POST /v1/verify and /v1/preconditions
// (Method is ignored for preconditions) and the element type of
// BatchRequest.Items.
type VerifyRequest struct {
	// Spec is a vs3 spec file: program + template/predicates directives
	// (the same encoding cmd/vs3 and examples/ use).
	Spec string `json:"spec"`
	// Method selects the algorithm: "lfp", "gfp", or "cfp" (default "lfp").
	Method string `json:"method"`
	// TimeoutMS bounds the run; 0 means the server default. Values above
	// the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms"`
}

// VerifyResponse reports one verification run.
type VerifyResponse struct {
	Method     string            `json:"method"`
	Proved     bool              `json:"proved"`
	Aborted    bool              `json:"aborted"`
	Truncated  bool              `json:"truncated"`
	Steps      int               `json:"steps"`
	DurationMS float64           `json:"duration_ms"`
	Invariants map[string]string `json:"invariants,omitempty"`
	// FromStore reports that the response was replayed from the on-disk
	// knowledge store (a previous lifetime solved this exact problem with
	// this method under the same solver bounds). DurationMS and Stats still
	// describe this request — the replay's own wall time and its (empty)
	// collector delta — and OriginalDurationMS carries the stored run's
	// duration.
	FromStore          bool    `json:"from_store,omitempty"`
	OriginalDurationMS float64 `json:"original_duration_ms,omitempty"`
	// Stats is the request-scoped collector delta (what this run recorded).
	Stats stats.Snapshot `json:"stats"`
}

// PreconditionsResponse reports one §6 enumeration run.
type PreconditionsResponse struct {
	Preconditions []string       `json:"preconditions"`
	Aborted       bool           `json:"aborted"`
	Truncated     bool           `json:"truncated"`
	Steps         int            `json:"steps"`
	DurationMS    float64        `json:"duration_ms"`
	Stats         stats.Snapshot `json:"stats"`
}

// errorResponse is the body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

func parseMethod(s string) (core.Method, error) {
	switch s {
	case "", "lfp", "LFP":
		return core.LFP, nil
	case "gfp", "GFP":
		return core.GFP, nil
	case "cfp", "CFP":
		return core.CFP, nil
	}
	return 0, fmt.Errorf("unknown method %q (want lfp, gfp, or cfp)", s)
}

// lease acquires a session for client with a timeout-bound run context
// derived from parent. On success the caller must call the returned finish
// exactly once; it unbinds and releases the session and returns the
// request-scoped stats delta.
func (s *Server) lease(parent context.Context, client string, timeoutMS int64) (*session, context.Context, func() stats.Snapshot, error) {
	sess, err := s.fq.acquire(parent, client)
	if err != nil {
		return nil, nil, nil, err
	}
	reqCtx, cancel := context.WithTimeout(parent, s.timeout(timeoutMS))
	sess.bind(reqCtx)
	s.ctr.Add(stats.Requests, 1)
	s.ctr.Add(stats.InFlight, 1)
	before := sess.snapshot()
	finish := func() stats.Snapshot {
		delta := sess.snapshot().Sub(before)
		cancel()
		sess.unbind()
		s.fq.release(sess)
		s.ctr.Add(stats.InFlight, -1)
		s.mu.Lock()
		s.agg = s.agg.Add(delta)
		s.mu.Unlock()
		return delta
	}
	return sess, reqCtx, finish, nil
}

// RunVerify executes one verification run end to end: resolve the problem,
// lease a session under the client's fair-queue key, run, and assemble the
// response. It powers POST /v1/verify, each /v1/batch item, and the binary
// rpc surface. The returned status is the HTTP status a standalone request
// would carry.
func (s *Server) RunVerify(parent context.Context, client string, req VerifyRequest) (resp VerifyResponse, key string, status int, err error) {
	m, err := parseMethod(req.Method)
	if err != nil {
		return VerifyResponse{}, "", http.StatusBadRequest, err
	}
	p, key, err := s.problem(req.Spec)
	if err != nil {
		return VerifyResponse{}, key, http.StatusBadRequest, err
	}
	// A persisted outcome from an earlier lifetime answers without leasing a
	// session at all: the store was opened under the same solver bounds (or
	// it would have started cold), so the recorded verdict is the one this
	// run would compute.
	if s.cfg.Store != nil {
		start := time.Now()
		if body, ok := s.cfg.Store.Outcome(key, m.String()); ok {
			var cached VerifyResponse
			if jerr := json.Unmarshal(body, &cached); jerr == nil {
				s.ctr.Add(stats.StoreOutcomeHits, 1)
				s.ctr.Add(stats.Requests, 1)
				cached.FromStore = true
				cached.OriginalDurationMS = cached.DurationMS
				cached.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
				cached.Stats = stats.Snapshot{}
				return cached, key, http.StatusOK, nil
			}
		}
	}
	sess, reqCtx, finish, err := s.lease(parent, client, req.TimeoutMS)
	if err != nil {
		if errors.Is(err, errBusy) {
			s.ctr.Add(stats.Rejected, 1)
			return VerifyResponse{}, key, http.StatusTooManyRequests, err
		}
		// The client's deadline or disconnect fired while queued.
		return VerifyResponse{}, key, http.StatusGatewayTimeout, err
	}
	out, err := sess.v.Verify(p, m)
	delta := finish()
	if err != nil {
		return VerifyResponse{}, key, http.StatusInternalServerError, err
	}
	resp = VerifyResponse{
		Method:     out.Method.String(),
		Proved:     out.Proved,
		Aborted:    out.Aborted,
		Truncated:  out.Truncated,
		Steps:      out.Steps,
		DurationMS: float64(out.Duration) / float64(time.Millisecond),
		Stats:      delta,
	}
	if len(out.Invariants) > 0 {
		resp.Invariants = map[string]string{}
		for cut, inv := range out.Invariants {
			resp.Invariants[cut] = inv.String()
		}
	}
	if resp.Truncated {
		s.ctr.Add(stats.Truncated, 1)
	}
	if resp.Aborted {
		// Never persisted: an aborted run's verdict reflects this request's
		// deadline, not the problem.
		s.ctr.Add(stats.Aborted, 1)
		return resp, key, abortStatus(reqCtx), nil
	}
	if s.cfg.Store != nil {
		if body, jerr := json.Marshal(resp); jerr == nil {
			s.cfg.Store.AppendOutcome(key, m.String(), body)
		}
	}
	return resp, key, http.StatusOK, nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decodePost(w, r, &req) {
		return
	}
	resp, key, status, err := s.RunVerify(r.Context(), ClientKey(r), req)
	if key != "" {
		w.Header().Set("X-VS3-Problem-Key", key)
	}
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, resp)
}

// RunPreconditions executes one §6 enumeration end to end, mirroring
// RunVerify's contract: it powers POST /v1/preconditions and the binary rpc
// surface, and the returned status is the HTTP status a standalone request
// would carry.
func (s *Server) RunPreconditions(parent context.Context, client string, req VerifyRequest) (resp PreconditionsResponse, key string, status int, err error) {
	p, key, err := s.problem(req.Spec)
	if err != nil {
		return PreconditionsResponse{}, key, http.StatusBadRequest, err
	}
	sess, reqCtx, finish, err := s.lease(parent, client, req.TimeoutMS)
	if err != nil {
		if errors.Is(err, errBusy) {
			s.ctr.Add(stats.Rejected, 1)
			return PreconditionsResponse{}, key, http.StatusTooManyRequests, err
		}
		return PreconditionsResponse{}, key, http.StatusGatewayTimeout, err
	}
	start := time.Now()
	pres, enum, err := sess.v.InferPreconditions(p)
	delta := finish()
	if err != nil {
		return PreconditionsResponse{}, key, http.StatusBadRequest, err
	}
	resp = PreconditionsResponse{
		Preconditions: []string{},
		Aborted:       enum.Aborted,
		Truncated:     enum.Truncated,
		Steps:         enum.Steps,
		DurationMS:    float64(time.Since(start)) / float64(time.Millisecond),
		Stats:         delta,
	}
	for _, pre := range pres {
		resp.Preconditions = append(resp.Preconditions, pre.Pre.String())
	}
	sort.Strings(resp.Preconditions)
	if resp.Truncated {
		s.ctr.Add(stats.Truncated, 1)
	}
	if resp.Aborted {
		s.ctr.Add(stats.Aborted, 1)
		return resp, key, abortStatus(reqCtx), nil
	}
	return resp, key, http.StatusOK, nil
}

func (s *Server) handlePreconditions(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decodePost(w, r, &req) {
		return
	}
	resp, key, status, err := s.RunPreconditions(r.Context(), ClientKey(r), req)
	if key != "" {
		w.Header().Set("X-VS3-Problem-Key", key)
	}
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, resp)
}

// DigestResponse is the body of an rpc KindDigest answer: the store's
// solved-outcome bloom digest (see store.OutcomeDigest) and its generation.
// Both are zero-valued when no store is attached.
type DigestResponse struct {
	Digest string `json:"digest"`
	Gen    uint64 `json:"gen"`
}

// CompactResponse is the body of POST /v1/compact.
type CompactResponse struct {
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	Compactions    int64 `json:"compactions"`
	LogBytes       int64 `json:"log_bytes"`
	LiveBytes      int64 `json:"live_bytes"`
}

// handleCompact triggers one on-demand store compaction. Serving continues
// concurrently; the response carries the reclaimed byte count and the store's
// post-compaction size counters.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	st := s.cfg.Store
	if st == nil {
		writeError(w, http.StatusConflict, errors.New("no knowledge store attached (-store)"))
		return
	}
	reclaimed, err := st.Compact()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ss := st.Stats()
	writeJSON(w, http.StatusOK, CompactResponse{
		ReclaimedBytes: reclaimed,
		Compactions:    ss.Compactions,
		LogBytes:       ss.LogBytes,
		LiveBytes:      ss.LiveBytes,
	})
}

// abortStatus maps an aborted run to its HTTP status: 504 for a deadline,
// 499 (nginx's client-closed-request convention) for a disconnect.
func abortStatus(ctx context.Context) int {
	if errors.Is(ctx.Err(), context.Canceled) {
		return 499
	}
	return http.StatusGatewayTimeout
}

// RetryAfter parses a 429 response's Retry-After header (helper for clients
// and tests).
func RetryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}
