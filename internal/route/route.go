package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// Policy selects how single requests and batch items map to backends.
type Policy string

const (
	// Affinity (the default) consistently hashes each request's problem key
	// onto the backend ring, so every backend stays warm for its slice of
	// the keyspace.
	Affinity Policy = "affinity"
	// Random spreads requests uniformly over live backends. It exists as
	// the control arm for TestClusterBench: same fleet, no affinity,
	// so the warm-path advantage collapses to 1/N.
	Random Policy = "random"
)

// randomSeed seeds the source Random placement draws from. It is fixed, so
// a run's placement depends on its request order alone and two runs of one
// workload place their requests alike.
const randomSeed = 1

// Config tunes a Router.
type Config struct {
	// Backends are the vs3d base URLs (e.g. "http://10.0.0.1:8080"). At
	// least one is required.
	Backends []string
	// Weights, when non-nil, must parallel Backends: backend i owns
	// round(Replicas × Weights[i]) virtual ring nodes (minimum 1), so a
	// weight-2 node serves about twice the keyspace of a weight-1 node.
	// Nil or non-positive entries count as 1.0.
	Weights []float64
	// Replicas is the virtual-node count per weight-1 backend (default 128).
	Replicas int
	// Policy is Affinity or Random (default Affinity).
	Policy Policy
	// HealthInterval is the period between /healthz sweeps (default 2s);
	// HealthTimeout bounds one probe (default 1s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// RequestTimeout bounds one proxied request end to end, as a safety net
	// over the backend's own deadline handling (default 10m).
	RequestTimeout time.Duration
	// Client overrides the HTTP client used for the control plane (health
	// sweeps, /v1/stats aggregation). Requests travel over VS3R.
	Client *http.Client
	// ID identifies the router in stats and metrics (default "vs3router").
	ID string
	// Hedge enables request hedging under the Affinity policy: when the
	// owner backend has not answered within an adaptive delay (rolling p95
	// of recent backend latency, clamped to [HedgeMin, HedgeMax]), the same
	// request is fired at the ring successor and the loser is cancelled.
	// Only the winner's answer is forwarded, so a verdict is never counted
	// twice; the cancelled side aborts on the backend like any client
	// disconnect (no false verdict, no leaked session).
	Hedge bool
	// HedgeMin / HedgeMax clamp the adaptive hedge delay (defaults 10ms /
	// 1s). Before ~20 latency samples exist the delay is 25ms.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// StoreAware enables store-aware placement under the Affinity policy:
	// the health sweep keeps a bloom digest of each backend's solved problem
	// keys (refetched only when the X-VS3-Store-Gen healthz header moves),
	// and a request whose key a live backend's digest claims is routed there
	// ahead of plain ring order. After a ring change (reweight, node
	// added/removed) this sends a known problem back to the node that already
	// holds its knowledge instead of re-deriving it from scratch on the new
	// ring owner. Digest false positives only cost a misplaced preference —
	// the verdict is identical wherever the request lands.
	StoreAware bool
}

func (c Config) normalize() Config {
	if c.Replicas <= 0 {
		c.Replicas = 128
	}
	if c.Policy == "" {
		c.Policy = Affinity
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Minute
	}
	if c.ID == "" {
		c.ID = "vs3router"
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{IdleConnTimeout: 90 * time.Second}}
	}
	return c
}

// backend is one vs3d node plus its router-side state.
type backend struct {
	url      string
	weight   float64
	healthy  atomic.Bool
	serverID atomic.Pointer[string] // last X-VS3-Backend seen
	ctr      stats.Counters         // the registry's Backend rows: routed, failovers

	// The persistent VS3R connection pool to the endpoint the backend
	// advertises in X-VS3-RPC; nil until the health sweep has seen one.
	rpcMu sync.Mutex
	rpcc  *rpc.Client

	// Solved-outcome digest state (StoreAware). digest is the last parsed
	// bloom digest (nil claims nothing); digestGen is the generation it
	// reflects, compared against the X-VS3-Store-Gen healthz header so the
	// sweep refetches only on change.
	digest    atomic.Pointer[store.BloomDigest]
	digestGen atomic.Uint64
}

// claims reports whether the backend's last known digest claims key.
func (b *backend) claims(key string) bool {
	return b.digest.Load().Contains(key)
}

func (b *backend) id() string {
	if p := b.serverID.Load(); p != nil {
		return *p
	}
	return ""
}

// rpcClient returns the backend's rpc client, nil while it advertises none.
func (b *backend) rpcClient() *rpc.Client {
	b.rpcMu.Lock()
	defer b.rpcMu.Unlock()
	return b.rpcc
}

// adoptRPC points the backend's client at addr, keeping the pool when the
// address is unchanged; an empty addr drops it. It returns the client.
func (b *backend) adoptRPC(addr string) *rpc.Client {
	b.rpcMu.Lock()
	defer b.rpcMu.Unlock()
	if b.rpcc != nil && b.rpcc.Addr() == addr {
		return b.rpcc
	}
	if b.rpcc != nil {
		b.rpcc.Close()
		b.rpcc = nil
	}
	if addr != "" {
		b.rpcc = rpc.NewClient(addr, rpc.ClientConfig{})
	}
	return b.rpcc
}

// Router fronts a fleet of vs3d backends.
type Router struct {
	cfg      Config
	backends []*backend
	ring     *ring
	client   *http.Client
	started  time.Time

	rndMu sync.Mutex
	rnd   *rand.Rand

	rpcAddr atomic.Pointer[string] // advertised binary front (X-VS3-RPC)

	ctr stats.Counters // the registry's Router rows the router counts itself

	latMu   sync.Mutex // rolling backend-latency window feeding the hedge delay
	lats    [512]time.Duration
	latN    int // valid samples (≤ len(lats))
	latNext int // next slot to overwrite

	stopOnce sync.Once
	stopc    chan struct{}
	wg       sync.WaitGroup
}

// New builds a Router, runs the first health sweep (bounded by
// HealthTimeout) so the router can route as soon as New returns, and starts
// the health-check loop. Transport failures also mark a backend unhealthy
// immediately (passive detection), so failover does not wait for the next
// probe.
func New(cfg Config) (*Router, error) {
	cfg = cfg.normalize()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("route: at least one backend is required")
	}
	if cfg.Policy != Affinity && cfg.Policy != Random {
		return nil, fmt.Errorf("route: unknown policy %q", cfg.Policy)
	}
	if cfg.Weights != nil && len(cfg.Weights) != len(cfg.Backends) {
		return nil, fmt.Errorf("route: %d weights for %d backends", len(cfg.Weights), len(cfg.Backends))
	}
	weights := make([]float64, len(cfg.Backends))
	for i := range weights {
		weights[i] = 1
		if cfg.Weights != nil && cfg.Weights[i] > 0 {
			weights[i] = cfg.Weights[i]
		}
	}
	r := &Router{
		cfg:     cfg,
		ring:    newRing(weights, cfg.Replicas),
		client:  cfg.Client,
		started: time.Now(),
		rnd:     rand.New(rand.NewSource(randomSeed)),
		stopc:   make(chan struct{}),
	}
	for i, u := range cfg.Backends {
		r.backends = append(r.backends, &backend{url: u, weight: weights[i]})
	}
	r.sweep()
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// Close stops the health loop, tears down persistent rpc connections, and
// idles kept-alive HTTP connections.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stopc) })
	r.wg.Wait()
	for _, b := range r.backends {
		b.adoptRPC("")
	}
	if t, ok := r.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func (r *Router) healthLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopc:
			return
		case <-ticker.C:
			r.sweep()
		}
	}
}

// sweep probes every backend concurrently, each bounded by HealthTimeout.
func (r *Router) sweep() {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.HealthTimeout)
			defer cancel()
			b.healthy.Store(r.probe(ctx, b))
		}(b)
	}
	wg.Wait()
}

// probe reports whether b is live: its /healthz answers 200 (a draining
// backend answers 503, so drain takes it out of rotation without dropping
// its in-flight work) and advertises an rpc endpoint (X-VS3-RPC) that
// completes the VS3R handshake. Requests travel only over VS3R, so a
// backend without one can serve nothing.
func (r *Router) probe(ctx context.Context, b *backend) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if id := resp.Header.Get("X-VS3-Backend"); id != "" {
		b.serverID.Store(&id)
	}
	if resp.StatusCode != http.StatusOK {
		return false
	}
	c := b.adoptRPC(joinRPCAddr(b.url, resp.Header.Get("X-VS3-RPC")))
	if c == nil || c.Ready(ctx) != nil {
		return false
	}
	if r.cfg.StoreAware {
		if gen, err := strconv.ParseUint(resp.Header.Get("X-VS3-Store-Gen"), 10, 64); err == nil {
			r.refreshDigest(ctx, b, c, gen)
		}
	}
	return true
}

// refreshDigest refetches b's solved-outcome digest over rpc (KindDigest,
// answered without leasing a session) when the generation the backend
// advertises on /healthz has moved past the one the router holds.
func (r *Router) refreshDigest(ctx context.Context, b *backend, c *rpc.Client, gen uint64) {
	if gen == 0 || b.digestGen.Load() >= gen {
		return
	}
	resp, err := c.Call(ctx, rpc.Request{Kind: rpc.KindDigest})
	if err != nil || resp.Status != http.StatusOK {
		return
	}
	var dr serve.DigestResponse
	if err := json.Unmarshal(resp.Body, &dr); err != nil {
		return
	}
	d, err := store.ParseBloomDigest(dr.Digest)
	if err != nil {
		// A malformed digest claims nothing; plain ring affinity still works.
		d = nil
	}
	b.digest.Store(d)
	b.digestGen.Store(max(dr.Gen, gen))
}

// joinRPCAddr resolves an advertised X-VS3-RPC value against the backend's
// base URL: a bare ":port" inherits the backend host, a full "host:port"
// stands alone.
func joinRPCAddr(backendURL, adv string) string {
	if !strings.HasPrefix(adv, ":") {
		return adv
	}
	u, err := url.Parse(backendURL)
	if err != nil || u.Hostname() == "" {
		return ""
	}
	return net.JoinHostPort(u.Hostname(), strings.TrimPrefix(adv, ":"))
}

// candidates returns backend indices to try for key, best first. Affinity:
// ring order from the key's hash, live nodes first (so a key whose owner
// died lands deterministically on the owner's ring successor, and moves
// back when the owner recovers). Random: a random permutation of live
// nodes, dead ones appended as a last resort.
//
// Under StoreAware + Affinity, live backends whose solved-outcome digest
// claims the key are moved (stably) ahead of the rest: after a ring change
// the node that already holds a problem's knowledge beats the new ring owner,
// which would re-derive everything from scratch. When the ring owner itself
// claims the key the order is unchanged and no store hit is counted.
func (r *Router) candidates(key string) []int {
	seq := r.ring.sequence(key)
	if r.cfg.Policy == Random {
		r.rndMu.Lock()
		r.rnd.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		r.rndMu.Unlock()
	}
	live := make([]int, 0, len(seq))
	dead := make([]int, 0, len(seq))
	for _, i := range seq {
		if r.backends[i].healthy.Load() {
			live = append(live, i)
		} else {
			dead = append(dead, i)
		}
	}
	if r.cfg.StoreAware && r.cfg.Policy == Affinity && len(live) > 1 {
		claiming := make([]int, 0, len(live))
		rest := make([]int, 0, len(live))
		for _, i := range live {
			if r.backends[i].claims(key) {
				claiming = append(claiming, i)
			} else {
				rest = append(rest, i)
			}
		}
		if len(claiming) > 0 {
			if claiming[0] != live[0] {
				r.ctr.Add(stats.RouterStoreHits, 1)
			}
			live = append(claiming, rest...)
		}
	}
	return append(live, dead...)
}

// Handler returns the router's HTTP mux.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/verify", func(w http.ResponseWriter, req *http.Request) {
		r.proxySingle(w, req, rpc.KindVerify)
	})
	mux.HandleFunc("/v1/preconditions", func(w http.ResponseWriter, req *http.Request) {
		r.proxySingle(w, req, rpc.KindPreconditions)
	})
	mux.HandleFunc("/v1/batch", r.handleBatch)
	mux.HandleFunc("/v1/stats", r.handleStats)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, b := range r.backends {
			if b.healthy.Load() {
				fmt.Fprintln(w, "ok")
				return
			}
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no live backends")
	})
	id := r.cfg.ID
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("X-VS3-Router", id)
		if addr := r.rpcAddr.Load(); addr != nil {
			w.Header().Set("X-VS3-RPC", *addr)
		}
		mux.ServeHTTP(w, req)
	})
}

// AdvertiseRPC publishes the router's own binary rpc front in the
// X-VS3-RPC response header, so bulk clients (cmd/vs3load -proto rpc)
// discover it the same way the router discovers backends'.
func (r *Router) AdvertiseRPC(addr string) {
	r.rpcAddr.Store(&addr)
}

// maxProxyBody bounds a proxied request body.
const maxProxyBody = 32 << 20

// proxySingle routes one verify/preconditions request by its problem key.
// It only peeks the JSON body to build the rpc request; failover, hedging
// and the error answers are execute's.
func (r *Router) proxySingle(w http.ResponseWriter, req *http.Request, kind string) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxProxyBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return
	}
	var vr serve.VerifyRequest
	if err := json.Unmarshal(body, &vr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return
	}
	if vr.Spec == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing \"spec\""))
		return
	}
	res := r.serveOne(req.Context(), serve.ClientKey(req),
		rpc.Request{Kind: kind, Method: vr.Method, TimeoutMS: vr.TimeoutMS, Spec: vr.Spec})
	if res.err != nil {
		writeError(w, res.status, res.err)
		return
	}
	if res.backendID != "" {
		w.Header().Set("X-VS3-Backend", res.backendID)
	}
	if res.problemKey != "" {
		w.Header().Set("X-VS3-Problem-Key", res.problemKey)
	}
	if res.status == http.StatusTooManyRequests {
		// The binary protocol carries no headers; restore the Retry-After a
		// backend's HTTP surface sets on 429.
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// serveOne is the single-request path of both fronts (proxySingle and
// ServeRPC): count it, bound it by RequestTimeout, and execute it.
func (r *Router) serveOne(ctx context.Context, client string, req rpc.Request) callResult {
	r.ctr.Add(stats.RouterRequests, 1)
	ctx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
	defer cancel()
	return r.execute(ctx, serve.ProblemKey(req.Spec), client, req)
}

// errorResponse mirrors the backend error body shape.
type errorResponse struct {
	Error string `json:"error"`
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
