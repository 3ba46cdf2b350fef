// Package load drives a vs3d backend or a vs3router front tier with a
// mixed problem corpus at configurable concurrency and reports the numbers
// the scale-out story is judged on: p50/p95/p99 latency, throughput, shed
// rate, verdict correctness, and the server-side cache economics
// (from-scratch SMT queries and cache-hit ratio, read as /v1/stats deltas).
// cmd/vs3load is the CLI; the cluster benchmark (TestClusterBench in
// cmd/vs3router) reuses Run for its affinity-vs-random comparison. This harness is the regression gate
// future scale-out and persistence PRs run against.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rpc"
	"repro/internal/stats"
)

// Item is one corpus entry: a spec, the method to run, and the expected
// verdict (the generator reports any mismatch as an incorrect verdict —
// the one number that must stay zero under any load).
type Item struct {
	Name       string `json:"name"`
	Spec       string `json:"spec"`
	Method     string `json:"method"`
	WantProved bool   `json:"want_proved"`
}

// Options configures one load run.
type Options struct {
	// BaseURL is the vs3d or vs3router base URL (no trailing slash).
	BaseURL string
	// Corpus is the item mix; workers walk it round-robin so every item
	// gets an even share (default DefaultCorpus()).
	Corpus []Item
	// Concurrency is the number of in-flight requests (default 4).
	Concurrency int
	// Requests is the total number of requests to issue (default
	// 4×len(Corpus)).
	Requests int
	// TimeoutMS is the per-request deadline forwarded to the server
	// (default 0: server default).
	TimeoutMS int64
	// ClientKey tags requests for the server's per-client fair queueing.
	ClientKey string
	// Client overrides the HTTP client (default: shared keep-alive pool).
	Client *http.Client
	// Proto selects the request transport: "http" (default) posts JSON per
	// request; "rpc" discovers the target's binary VS3R endpoint (the
	// X-VS3-RPC header on GET /healthz) and drives verifies over persistent
	// multiplexed connections. Stats probes and health checks stay on HTTP
	// either way.
	Proto string

	// rpcc is the discovered binary client, set by Run when Proto is "rpc".
	rpcc *rpc.Client
}

func (o Options) normalize() Options {
	if len(o.Corpus) == 0 {
		o.Corpus = DefaultCorpus()
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Requests <= 0 {
		o.Requests = 4 * len(o.Corpus)
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.Concurrency + 4}}
	}
	return o
}

// Result is one load run's report.
type Result struct {
	BaseURL     string  `json:"base_url"`
	Proto       string  `json:"proto,omitempty"`
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	Seconds     float64 `json:"seconds"`

	OK        int `json:"ok"`
	Incorrect int `json:"incorrect"` // 200s whose verdict contradicts the corpus expectation
	Shed      int `json:"shed"`      // 429
	Aborted   int `json:"aborted"`   // 504/499 (deadline or disconnect)
	Errors    int `json:"errors"`    // transport failures and unexpected statuses

	ThroughputRPS float64 `json:"throughput_rps"` // completed (OK) requests per second
	ShedRate      float64 `json:"shed_rate"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	MeanMS        float64 `json:"mean_ms"`

	// Server-side deltas over the run, read from /v1/stats before and
	// after (works against both vs3d and vs3router, which share field
	// names; the router aggregates its live backends).
	SMTQueries    int64   `json:"smt_queries"`
	SMTCacheHits  int64   `json:"smt_cache_hits"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	FMScratch     int64   `json:"fm_scratch"`
	FMIncremental int64   `json:"fm_incremental"`
	ServerShed    int64   `json:"server_rejected"`
}

// Work returns the run's server-side from-scratch solving work: SMT validity
// queries plus Fourier–Motzkin eliminations. The store-aware routing
// benchmark (TestCompactBench in cmd/vs3router) compares this quantity
// across arms.
func (r Result) Work() int64 { return r.SMTQueries + r.FMScratch + r.FMIncremental }

// fetchStats reads a vs3d or router /v1/stats body into the registry's vs3d
// rows (a router's fleet totals carry the vs3d keys).
func fetchStats(ctx context.Context, client *http.Client, base string) (stats.Values, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return stats.Values{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return stats.Values{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return stats.Values{}, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return stats.Values{}, err
	}
	return stats.ParseJSON(body, stats.Daemon), nil
}

// Run executes the load and assembles the report. It returns an error only
// when the target is unreachable; verdict mismatches and transport errors
// during the run are counted in the Result, not fatal.
func Run(ctx context.Context, opts Options) (Result, error) {
	opts = opts.normalize()
	before, err := fetchStats(ctx, opts.Client, opts.BaseURL)
	if err != nil {
		return Result{}, fmt.Errorf("target not reachable: %w", err)
	}
	if opts.Proto == "rpc" {
		addr, err := DiscoverRPC(ctx, opts.Client, opts.BaseURL)
		if err != nil {
			return Result{}, err
		}
		opts.rpcc = rpc.NewClient(addr, rpc.ClientConfig{MaxConns: (opts.Concurrency + 127) / 128, StreamsPerConn: 128})
		defer opts.rpcc.Close()
	}

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []float64
		res       = Result{BaseURL: opts.BaseURL, Proto: opts.Proto, Concurrency: opts.Concurrency, Requests: opts.Requests}
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(opts.Requests) || ctx.Err() != nil {
					return
				}
				item := opts.Corpus[i%int64(len(opts.Corpus))]
				outcome, ms := runOne(ctx, opts, item)
				mu.Lock()
				switch outcome {
				case outcomeOK:
					res.OK++
					latencies = append(latencies, ms)
				case outcomeIncorrect:
					res.Incorrect++
					latencies = append(latencies, ms)
				case outcomeShed:
					res.Shed++
				case outcomeAborted:
					res.Aborted++
				default:
					res.Errors++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()

	after, err := fetchStats(ctx, opts.Client, opts.BaseURL)
	if err == nil {
		d := after.Sub(before)
		res.SMTQueries = int64(d[stats.Queries])
		res.SMTCacheHits = int64(d[stats.CacheHits])
		res.FMScratch = int64(d[stats.FMScratch])
		res.FMIncremental = int64(d[stats.FMIncremental])
		res.ServerShed = int64(d[stats.Rejected])
		if total := res.SMTQueries + res.SMTCacheHits; total > 0 {
			res.CacheHitRatio = float64(res.SMTCacheHits) / float64(total)
		}
	}
	if res.Seconds > 0 {
		res.ThroughputRPS = float64(res.OK) / res.Seconds
	}
	if res.Requests > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Requests)
	}
	res.P50MS, res.P95MS, res.P99MS, res.MeanMS = percentiles(latencies)
	return res, nil
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeIncorrect
	outcomeShed
	outcomeAborted
	outcomeError
)

// DiscoverRPC resolves base's advertised binary rpc endpoint by reading the
// X-VS3-RPC header off GET /healthz. A bare ":port" advertisement (a daemon
// listening on an unspecified host) is joined with base's host.
func DiscoverRPC(ctx context.Context, client *http.Client, base string) (string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", fmt.Errorf("rpc discovery: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	adv := resp.Header.Get("X-VS3-RPC")
	if adv == "" {
		return "", fmt.Errorf("rpc discovery: %s does not advertise a binary rpc endpoint (X-VS3-RPC)", base)
	}
	if !strings.HasPrefix(adv, ":") {
		return adv, nil
	}
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("rpc discovery: %w", err)
	}
	return net.JoinHostPort(u.Hostname(), strings.TrimPrefix(adv, ":")), nil
}

// runOneRPC is runOne's binary twin: one verify over a multiplexed stream.
func runOneRPC(ctx context.Context, opts Options, item Item) (outcome, float64) {
	start := time.Now()
	resp, err := opts.rpcc.Call(ctx, rpc.Request{
		Kind:      rpc.KindVerify,
		Method:    item.Method,
		TimeoutMS: opts.TimeoutMS,
		Client:    opts.ClientKey,
		Spec:      item.Spec,
	})
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return outcomeError, ms
	}
	switch resp.Status {
	case http.StatusOK:
		var vr struct {
			Proved  bool `json:"proved"`
			Aborted bool `json:"aborted"`
		}
		if err := json.Unmarshal(resp.Body, &vr); err != nil {
			return outcomeError, ms
		}
		if vr.Proved != item.WantProved {
			return outcomeIncorrect, ms
		}
		return outcomeOK, ms
	case http.StatusTooManyRequests:
		return outcomeShed, ms
	case http.StatusGatewayTimeout, 499:
		return outcomeAborted, ms
	default:
		return outcomeError, ms
	}
}

func runOne(ctx context.Context, opts Options, item Item) (outcome, float64) {
	if opts.rpcc != nil {
		return runOneRPC(ctx, opts, item)
	}
	body, _ := json.Marshal(map[string]any{
		"spec": item.Spec, "method": item.Method, "timeout_ms": opts.TimeoutMS,
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.BaseURL+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		return outcomeError, 0
	}
	req.Header.Set("Content-Type", "application/json")
	if opts.ClientKey != "" {
		req.Header.Set("X-VS3-Client", opts.ClientKey)
	}
	start := time.Now()
	resp, err := opts.Client.Do(req)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		return outcomeError, ms
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var vr struct {
			Proved  bool `json:"proved"`
			Aborted bool `json:"aborted"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
			return outcomeError, ms
		}
		if vr.Proved != item.WantProved {
			return outcomeIncorrect, ms
		}
		return outcomeOK, ms
	case http.StatusTooManyRequests:
		return outcomeShed, ms
	case http.StatusGatewayTimeout, 499:
		return outcomeAborted, ms
	default:
		return outcomeError, ms
	}
}

// percentiles returns p50/p95/p99/mean over latencies in milliseconds.
func percentiles(ms []float64) (p50, p95, p99, mean float64) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return at(0.50), at(0.95), at(0.99), sum / float64(len(sorted))
}

// WriteReport prints a human-readable digest.
func (r Result) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "target        %s\n", r.BaseURL)
	fmt.Fprintf(w, "requests      %d (concurrency %d) in %.2fs\n", r.Requests, r.Concurrency, r.Seconds)
	fmt.Fprintf(w, "outcomes      ok=%d incorrect=%d shed=%d aborted=%d errors=%d\n",
		r.OK, r.Incorrect, r.Shed, r.Aborted, r.Errors)
	fmt.Fprintf(w, "throughput    %.1f req/s (shed rate %.1f%%)\n", r.ThroughputRPS, 100*r.ShedRate)
	fmt.Fprintf(w, "latency ms    p50=%.1f p95=%.1f p99=%.1f mean=%.1f\n", r.P50MS, r.P95MS, r.P99MS, r.MeanMS)
	fmt.Fprintf(w, "smt           queries=%d cache_hits=%d hit_ratio=%.3f\n", r.SMTQueries, r.SMTCacheHits, r.CacheHitRatio)
	fmt.Fprintf(w, "fm            scratch=%d incremental=%d (from-scratch work %d)\n", r.FMScratch, r.FMIncremental, r.Work())
}
