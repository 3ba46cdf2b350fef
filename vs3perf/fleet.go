package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/route"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/store"
)

// The fleet: a route.Router front over two serve.Server backends, each with
// one verifier session (Pool 1) and its own store, the router talking VS3R
// to them. Everything runs in this process over loopback TCP; two clients
// drive it in a closed loop (each sends its next request when the previous
// answer arrives).
const (
	fleetBackends = 2
	fleetClients  = 2
	fleetStarts   = 3 // set-up starts the fleet this many times; setup_s takes the median
	clientPrefix  = "vs3perf-r"
	requestTimeMS = 60_000
	// A drive runs in drivePhases phases of at least phaseMinPerClient
	// requests per client, with phaseSpeedSamples reference kernel samples
	// between two (see drive).
	drivePhases       = 20
	phaseMinPerClient = 5
	phaseSpeedSamples = 3
)

// backend is one serve.Server with its store and both surfaces.
type backend struct {
	st     *store.Store
	srv    *serve.Server
	rpcSrv *rpc.Server
	rpcLn  net.Listener
	httpLn net.Listener
	hs     *http.Server
	url    string
}

// fleet is the running router and backends.
type fleet struct {
	backends []*backend
	router   *route.Router
	front    *http.Server
	frontLn  net.Listener
	url      string
	client   *http.Client
	handles  *handleLog
	openMS   []float64 // store.Open time of each backend's store
	wg       sync.WaitGroup
}

// handleLog records how long each request spent inside serve.Server's
// ServeRPC, keyed by the request id the client sent as its fair-queue key
// (the router forwards X-VS3-Client to the backend as rpc.Request.Client).
type handleLog struct {
	tr      *tracer
	mu      sync.Mutex
	handle  map[int64]time.Duration
	parents map[int64]int64 // request id -> client span id
}

func (h *handleLog) begin(req, spanID int64) {
	h.mu.Lock()
	h.parents[req] = spanID
	h.mu.Unlock()
}

// take returns and forgets a request's handle time.
func (h *handleLog) take(req int64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.handle[req]
	delete(h.handle, req)
	delete(h.parents, req)
	return d, ok
}

// timedRPC wraps a backend's rpc.Handler to time each call.
type timedRPC struct {
	inner rpc.Handler
	log   *handleLog
}

func (t *timedRPC) ServeRPC(ctx context.Context, req rpc.Request) rpc.Response {
	id := t.log.tr.id()
	start := time.Now()
	resp := t.inner.ServeRPC(ctx, req)
	end := time.Now()
	if s, ok := strings.CutPrefix(req.Client, clientPrefix); ok {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			t.log.mu.Lock()
			t.log.handle[n] = end.Sub(start)
			parent := t.log.parents[n]
			t.log.mu.Unlock()
			t.log.tr.record(id, parent, n, "serve.Server.ServeRPC", start, end)
		}
	}
	return resp
}

// startFleet opens one store per directory and starts the backends, the
// router and its HTTP front.
func startFleet(tr *tracer, dirs []string) (*fleet, error) {
	f := &fleet{
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fleetClients + 2}},
		handles: &handleLog{tr: tr, handle: map[int64]time.Duration{}, parents: map[int64]int64{}},
	}
	opts := store.Options{Params: core.Config{}.SMT.StoreParams()}
	var urls []string
	for i, dir := range dirs {
		b := &backend{}
		f.backends = append(f.backends, b)
		var err error
		id := tr.id()
		t0 := time.Now()
		b.st, err = store.Open(dir, opts)
		tr.record(id, 0, 0, "store.Open", t0, time.Now())
		f.openMS = append(f.openMS, ms(time.Since(t0)))
		if err != nil {
			f.close()
			return nil, err
		}
		b.srv = serve.New(serve.Config{ID: fmt.Sprintf("backend-%d", i), Pool: 1, Store: b.st})
		if b.rpcLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
		b.rpcSrv = rpc.NewServer(&timedRPC{inner: b.srv, log: f.handles}, rpc.ServerConfig{})
		b.srv.AdvertiseRPC(rpc.AdvertiseAddr(b.rpcLn.Addr()))
		b.srv.SetRPCStats(b.rpcSrv.Stats)
		if b.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			f.close()
			return nil, err
		}
		b.hs = &http.Server{Handler: b.srv.Handler()}
		b.url = "http://" + b.httpLn.Addr().String()
		urls = append(urls, b.url)
		f.wg.Add(2)
		go func() { defer f.wg.Done(); _ = b.rpcSrv.Serve(b.rpcLn) }()
		go func() { defer f.wg.Done(); _ = b.hs.Serve(b.httpLn) }()
	}
	var err error
	if f.router, err = route.New(route.Config{Backends: urls, StoreAware: true}); err != nil {
		f.close()
		return nil, err
	}
	if f.frontLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		f.close()
		return nil, err
	}
	f.front = &http.Server{Handler: f.router.Handler()}
	f.url = "http://" + f.frontLn.Addr().String()
	f.wg.Add(1)
	go func() { defer f.wg.Done(); _ = f.front.Serve(f.frontLn) }()
	return f, nil
}

// close stops the front, the router and the backends, closes the stores
// (flushing them) and waits for every serving goroutine to return.
func (f *fleet) close() error {
	if f.front != nil {
		f.front.Close()
	} else if f.frontLn != nil {
		f.frontLn.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	var errs []error
	for _, b := range f.backends {
		if b.hs != nil {
			b.srv.StartDrain()
			b.hs.Close()
		} else if b.httpLn != nil {
			b.httpLn.Close()
		}
		if b.rpcSrv != nil {
			b.rpcLn.Close()
			b.rpcSrv.Close()
		} else if b.rpcLn != nil {
			b.rpcLn.Close()
		}
		if b.st != nil {
			errs = append(errs, b.st.Close())
		}
	}
	f.wg.Wait()
	f.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// routerStats is the slice of the router's /v1/stats body the benchmark
// reads.
type routerStats struct {
	StoreHits int64 `json:"route_store_hits"`
	RPCConns  int64 `json:"rpc_conns"`
	Backends  []struct {
		Proto          string `json:"proto"`
		StoreDigestGen uint64 `json:"store_digest_gen"`
	} `json:"backends"`
}

// counterSet holds the numeric fields of a /v1/stats body by JSON name.
type counterSet map[string]float64

// UnmarshalJSON keeps the body's top-level numeric fields.
func (c *counterSet) UnmarshalJSON(b []byte) error {
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	*c = counterSet{}
	for k, v := range raw {
		if n, ok := v.(float64); ok {
			(*c)[k] = n
		}
	}
	return nil
}

// plus returns c + sign·o, field by field.
func (c counterSet) plus(o counterSet, sign float64) counterSet {
	out := counterSet{}
	for k, v := range c {
		out[k] = v
	}
	for k, v := range o {
		out[k] += sign * v
	}
	return out
}

// getJSON fetches a /v1/stats body as a span and decodes it into v.
func (f *fleet) getJSON(ctx context.Context, tr *tracer, url string, v any) (time.Duration, error) {
	var err error
	d := tr.timed(0, 0, "GET /v1/stats", func() {
		var req *http.Request
		if req, err = http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil); err != nil {
			return
		}
		var resp *http.Response
		if resp, err = f.client.Do(req); err != nil {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s/v1/stats: status %d", url, resp.StatusCode)
			return
		}
		err = json.NewDecoder(resp.Body).Decode(v)
	})
	return d, err
}

// fleetSnap is one reading of every backend's and the router's stats.
type fleetSnap struct {
	backends counterSet // summed over backends
	router   routerStats
	fetchMS  []float64
}

func (f *fleet) snapshot(ctx context.Context, tr *tracer) (fleetSnap, error) {
	s := fleetSnap{backends: counterSet{}}
	for _, b := range f.backends {
		var bs counterSet
		d, err := f.getJSON(ctx, tr, b.url, &bs)
		if err != nil {
			return s, err
		}
		s.fetchMS = append(s.fetchMS, ms(d))
		s.backends = s.backends.plus(bs, 1)
	}
	d, err := f.getJSON(ctx, tr, f.url, &s.router)
	s.fetchMS = append(s.fetchMS, ms(d))
	return s, err
}

// waitReady polls the router until it speaks VS3R to every backend and
// holds the current outcome digest of every backend whose store has one,
// so no request is timed against a half-upgraded fleet.
func (f *fleet) waitReady(ctx context.Context, tr *tracer) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for {
		var rs routerStats
		_, err := f.getJSON(ctx, tr, f.url, &rs)
		if err == nil && len(rs.Backends) == len(f.backends) {
			ready := true
			for i, b := range f.backends {
				gen := b.st.DigestGen()
				if rs.Backends[i].Proto != "rpc" || (gen > 0 && rs.Backends[i].StoreDigestGen < gen) {
					ready = false
				}
			}
			if ready {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// answer is one request's outcome as the client saw it.
type answer struct {
	start     time.Time
	end       time.Time
	latency   time.Duration
	handle    time.Duration // time inside the backend's ServeRPC
	hasHandle bool
	ok        bool // 200 with a completed run
	proved    bool
	fromStore bool
	engineMS  float64 // the response's duration_ms
	steps     int
	parse     time.Duration // lang.ParseSpecFile of the spec, traced runs only
}

// verifyResponse is the slice of serve.VerifyResponse the client reads.
type verifyResponse struct {
	Proved     bool    `json:"proved"`
	Aborted    bool    `json:"aborted"`
	Steps      int     `json:"steps"`
	DurationMS float64 `json:"duration_ms"`
	FromStore  bool    `json:"from_store"`
}

// driveOut is one measured sequence of requests.
type driveOut struct {
	answers []answer // in request order
	wall    time.Duration
	phases  []phase
}

// phase is one slice of a drive: requests [lo, hi) and the reference
// kernel's time around them (see calib.go).
type phase struct {
	lo, hi int
	speed  float64
}

// drive sends reqs through the router front from fleetClients closed-loop
// clients, each sending the requests assigned to it in order. Request ids
// are reqBase+index. The requests go in drivePhases phases; between two,
// with both clients idle, the reference kernel is sampled, so each phase's
// times can be brought to the run's median speed as the engine's cells are.
func (r *run) drive(ctx context.Context, f *fleet, reqs []request, reqBase int64) driveOut {
	answers := make([]answer, len(reqs))
	// Start from a collected heap, so one drive's garbage (or a closed
	// fleet's) does not set the collector's pace for the next.
	runtime.GC()
	size := max(phaseMinPerClient*fleetClients, len(reqs)/drivePhases)
	var phases []phase
	before := r.sampleSpeed(phaseSpeedSamples)
	start := time.Now()
	for lo := 0; lo < len(reqs); lo += size {
		hi := min(len(reqs), lo+size)
		var wg sync.WaitGroup
		for c := 0; c < fleetClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if reqs[i].client == c && ctx.Err() == nil {
						answers[i] = f.call(ctx, r.tr, reqs[i], reqBase+int64(i))
					}
				}
			}()
		}
		wg.Wait()
		after := r.sampleSpeed(phaseSpeedSamples)
		phases = append(phases, phase{lo: lo, hi: hi, speed: (before + after) / 2})
		before = after
	}
	return driveOut{answers: answers, wall: time.Since(start), phases: phases}
}

// owner returns the index of the backend the router's ring places spec on.
func (f *fleet) owner(spec string) int {
	url := f.router.Owner(serve.ProblemKey(spec))
	for i, b := range f.backends {
		if b.url == url {
			return i
		}
	}
	return -1
}

// call sends one verify request and reads its answer.
func (f *fleet) call(ctx context.Context, tr *tracer, q request, id int64) answer {
	var a answer
	spanID := tr.id()
	if spanID != 0 {
		// What parsing this spec costs, timed on the client side before the
		// request (the backend parses it again inside ServeRPC).
		a.parse = tr.timed(0, id, "lang.ParseSpecFile", func() { _, _ = lang.ParseSpecFile(q.spec) })
		f.handles.begin(id, spanID)
	}
	body, err := json.Marshal(serve.VerifyRequest{Spec: q.spec, Method: q.method, TimeoutMS: requestTimeMS})
	if err != nil {
		return a
	}
	start := time.Now()
	status, out, err := f.post(ctx, body, id)
	end := time.Now()
	tr.record(spanID, 0, id, "POST /v1/verify", start, end)
	a.start, a.end, a.latency = start, end, end.Sub(start)
	a.handle, a.hasHandle = f.handles.take(id)
	if err != nil || status != http.StatusOK {
		return a
	}
	var vr verifyResponse
	if json.Unmarshal(out, &vr) != nil || vr.Aborted {
		return a
	}
	a.ok, a.proved, a.fromStore, a.engineMS, a.steps = true, vr.Proved, vr.FromStore, vr.DurationMS, vr.Steps
	return a
}

func (f *fleet) post(ctx context.Context, body []byte, id int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-VS3-Client", clientPrefix+strconv.FormatInt(id, 10))
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// tally checks every answer's verdict.
func (r *run) tally(reqs []request, answers []answer) {
	for i, a := range answers {
		r.verdict(reqs[i].name, a.ok, a.proved, reqs[i].want)
	}
}

// fleetEndToEnd sets the end-to-end metrics of one measured drive, and the
// client-side latency percentiles the traced run reports. Every latency and
// phase time is first brought to the run's median speed: multiplied by the
// run's median kernel time over the kernel time around its phase. A phase's
// rate is the sum over clients of each client's completed requests over the
// span from its first request's start to its last one's end (the time it
// then waits for the other client at the phase boundary is not the
// fleet's). throughput_ops is the median rate over phases, so a host stall
// moves one phase rather than the run; suite_s is the time the whole batch
// takes at that rate.
func (r *run) fleetEndToEnd(reqs []request, d driveOut) {
	runSpeed := median(r.calib)
	var lats, rates []float64
	for _, p := range d.phases {
		adj := runSpeed / p.speed
		rate := 0.0
		for c := 0; c < fleetClients; c++ {
			var first, last time.Time
			done := 0
			for i := p.lo; i < p.hi; i++ {
				a := d.answers[i]
				if reqs[i].client != c {
					continue
				}
				if first.IsZero() {
					first = a.start
				}
				last = a.end
				if a.ok {
					done++
					lats = append(lats, ms(a.latency)*adj)
				}
			}
			if done > 0 {
				rate += float64(done) / (last.Sub(first).Seconds() * adj)
			}
		}
		rates = append(rates, rate)
	}
	tput := median(rates)
	r.set("throughput_ops", tput)
	r.set("suite_s", float64(len(d.answers))/tput)
	r.set("geomean_ms", geomean(lats))
	r.set("op.p50_ms", median(lats))
	r.set("op.p95_ms", quantile(lats, 0.95))
	if q := len(lats) / 4; q > 0 {
		r.set("op.drift_ratio", median(lats[len(lats)-q:])/median(lats[:q]))
	}
	r.set("retained_heap_mb", retainedHeapMB())
	r.notef("fleet: %d requests in %.2fs in %d phases from %d closed-loop clients, %d backends with Pool 1, router->backend over VS3R",
		len(d.answers), d.wall.Seconds(), len(d.phases), fleetClients, fleetBackends)
}

// okLatencies returns the latencies of the completed answers, in ms.
func okLatencies(answers []answer) []float64 {
	var out []float64
	for _, a := range answers {
		if a.ok {
			out = append(out, ms(a.latency))
		}
	}
	return out
}

// fleetLayers sets the per-layer metrics of a traced drive from the
// answers and the stats deltas around it.
func (r *run) fleetLayers(reqs []request, answers []answer, before, after fleetSnap) {
	d := after.backends.plus(before.backends, -1)
	r.setWork(counters{
		queries: int64(d["smt_queries"]), cacheHits: int64(d["smt_cache_hits"]),
		contexts: int64(d["smt_contexts"]), probes: int64(d["assumption_probes"]),
		lemmaReuse: int64(d["lemma_reuse"]), fmScratch: int64(d["fm_scratch"]),
		fmIncremental: int64(d["fm_incremental"]), fmCubeHits: int64(d["fm_cube_hits"]),
		fmCapHits: int64(d["fm_cap_hits"]), corePruned: int64(d["core_pruned"]),
		coreEvicted: int64(d["core_evicted"]),
	})
	r.set("store.verdict_hits", d["store_verdict_hits"]+d["store_cons_hits"])
	r.set("store.warm_lemmas", d["store_warm_lemmas"])
	r.set("store.warm_cores", d["store_warm_cores"])
	r.set("store.outcome_hits", d["store_outcome_hits"])
	r.set("store.appended", d["store_appended"])
	r.set("serve.problem_hits", d["problem_cache_hits"])
	r.set("rpc.requests", d["rpc_requests"])
	r.set("route.store_hits", float64(after.router.StoreHits-before.router.StoreHits))
	r.set("rpc.conns", float64(after.router.RPCConns))
	r.set("stats.fetch_ms", median(append(before.fetchMS, after.fetchMS...)))

	var handle, serveOver, routeOver, verify, parse []float64
	var lfp, gfp, cfp, steps, models float64
	for i, a := range answers {
		if !a.ok {
			continue
		}
		parse = append(parse, ms(a.parse))
		if a.hasHandle {
			handle = append(handle, ms(a.handle))
			routeOver = append(routeOver, ms(a.latency-a.handle))
		}
		if a.fromStore {
			// A replayed answer carries the original run's duration_ms.
			continue
		}
		verify = append(verify, a.engineMS)
		if a.hasHandle {
			serveOver = append(serveOver, ms(a.handle)-a.engineMS)
		}
		switch reqs[i].method {
		case "lfp":
			lfp += a.engineMS
			steps += float64(a.steps)
		case "gfp":
			gfp += a.engineMS
			steps += float64(a.steps)
		case "cfp":
			cfp += a.engineMS
			models += float64(a.steps)
		}
	}
	r.set("serve.handle_ms", median(handle))
	r.set("serve.overhead_ms", median(serveOver))
	r.set("route.overhead_ms", median(routeOver))
	r.set("core.verify_ms", median(verify))
	r.set("lang.parse_ms", median(parse))
	r.set("fixpoint.lfp_ms", lfp)
	r.set("fixpoint.gfp_ms", gfp)
	r.set("fixpoint.steps", steps)
	r.set("cbi.cfp_ms", cfp)
	r.set("cbi.models", models)
	r.set("trace.spans", float64(len(r.tr.spans)))
	if len(handle) < len(answers) {
		r.notef("serve.handle_ms missing for %d of %d requests", len(answers)-len(handle), len(answers))
	}
}

// tracedDrive repeats a measurement with spans and the CPU profile on and
// sets the per-layer metrics from it, and the tracing overhead as the
// traced geomean latency over the untraced one.
func (r *run) tracedDrive(ctx context.Context, f *fleet, reqs []request, reqBase int64, plain float64) error {
	before, err := f.snapshot(ctx, r.tr)
	if err != nil {
		return err
	}
	var answers []answer
	m0 := readMem()
	prof, err := r.profile(func() { answers = r.drive(ctx, f, reqs, reqBase).answers })
	if err != nil {
		return err
	}
	m1 := readMem()
	r.tally(reqs, answers)
	r.setCPU(prof)
	if err := r.setHeap(); err != nil {
		return err
	}
	r.setRuntime(m0, m1, len(reqs))
	// Flush each store as the engine workloads do, timing the write-behind
	// queue's drain.
	var flush float64
	var logBytes int64
	for _, b := range f.backends {
		t0 := time.Now()
		if err := b.st.Flush(); err != nil {
			return err
		}
		flush += ms(time.Since(t0))
		logBytes += b.st.Stats().LogBytes
	}
	after, err := f.snapshot(ctx, r.tr)
	if err != nil {
		return err
	}
	r.fleetLayers(reqs, answers, before, after)
	r.set("store.flush_ms", flush)
	r.set("store.log_bytes", float64(logBytes))
	r.set("store.open_ms", median(f.openMS))
	r.set("trace.overhead_pct", (geomean(okLatencies(answers))/plain-1)*100)
	return nil
}

// storeDirs names one fresh store directory per backend.
func (r *run) storeDirs(tag string) []string {
	var dirs []string
	for i := 0; i < fleetBackends; i++ {
		dirs = append(dirs, filepath.Join(r.work, fmt.Sprintf("%s-store-%d", tag, i)))
	}
	return dirs
}

// startReady starts a fleet on dirs and waits until it is ready, returning
// how long that took.
func (r *run) startReady(ctx context.Context, dirs []string) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(r.tr, dirs)
	if err != nil {
		return nil, 0, err
	}
	if err := f.waitReady(ctx, r.tr); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(t0), nil
}

// startMedian starts the fleet fleetStarts times on the directories dirs
// returns (each start gets its own when fresh is set, else the same ones are
// reopened), keeps the last and returns the median start time.
func (r *run) startMedian(ctx context.Context, dirs func(i int) []string) (*fleet, float64, error) {
	var starts []float64
	for i := 0; i < fleetStarts; i++ {
		f, d, err := r.startReady(ctx, dirs(i))
		if err != nil {
			return nil, 0, err
		}
		starts = append(starts, d.Seconds())
		if i == fleetStarts-1 {
			return f, median(starts), nil
		}
		if err := f.close(); err != nil {
			return nil, 0, err
		}
	}
	panic("unreachable")
}

// fleetFresh measures never-seen specs: every request parses, compiles its
// verification conditions, leases a session, runs the engine and writes
// its outcome to the store. Set-up warms the process (interner, code
// paths) on a throwaway fleet with specs of its own, then starts the
// measured fleet.
func fleetFresh(r *run) error {
	ctx := context.Background()
	n := 10 * r.seconds
	start := time.Now()
	warm, _, err := r.startReady(ctx, r.storeDirs("warmup"))
	if err != nil {
		return err
	}
	warmReqs := freshSpecs(r.seed, 1, 16, warm.owner)
	r.tally(warmReqs, r.drive(ctx, warm, warmReqs, 0).answers)
	if err := warm.close(); err != nil {
		return err
	}
	warmup := time.Since(start)
	f, startS, err := r.startMedian(ctx, func(i int) []string { return r.storeDirs(fmt.Sprintf("fresh%d", i)) })
	if err != nil {
		return err
	}
	r.set("setup_s", warmup.Seconds()+startS)

	reqs := freshSpecs(r.seed, 2, n, f.owner)
	d := r.drive(ctx, f, reqs, 1_000_000)
	r.tally(reqs, d.answers)
	r.fleetEndToEnd(reqs, d)
	if err := f.close(); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	// Fresh traffic ages the fleet, so the traced repeat gets a fleet and
	// specs of its own.
	f, _, err = r.startReady(ctx, r.storeDirs("traced"))
	if err != nil {
		return err
	}
	err = r.tracedDrive(ctx, f, freshSpecs(r.seed, 3, n, f.owner), 2_000_000, r.values["geomean_ms"])
	if cerr := f.close(); err == nil {
		err = cerr
	}
	return err
}

// fleetReplay measures replayed outcomes: set-up solves the corpus once on
// fresh stores, closes the fleet and reopens it on the same stores, so every
// measured request is answered from a store without engine work.
func fleetReplay(r *run) error {
	ctx := context.Background()
	n := 2000 * r.seconds
	corpus, err := corpusRequests()
	if err != nil {
		return err
	}
	dirs := r.storeDirs("replay")
	start := time.Now()
	fill, _, err := r.startReady(ctx, dirs)
	if err != nil {
		return err
	}
	r.tally(corpus, r.drive(ctx, fill, corpus, 0).answers)
	if err := fill.close(); err != nil {
		return err
	}
	filled := time.Since(start)
	f, startS, err := r.startMedian(ctx, func(int) []string { return dirs })
	if err != nil {
		return err
	}
	r.set("setup_s", filled.Seconds()+startS)
	var loaded int64
	for _, b := range f.backends {
		ss := b.st.Stats()
		loaded += ss.LoadedLemmas + ss.LoadedCores + ss.LoadedVerdicts + ss.LoadedConsistency + ss.LoadedOutcomes
	}

	reqs := replayRequests(corpus, r.seed, 1, n)
	d := r.drive(ctx, f, reqs, 1_000_000)
	r.tally(reqs, d.answers)
	r.fleetEndToEnd(reqs, d)
	if r.trace {
		err = r.tracedDrive(ctx, f, replayRequests(corpus, r.seed, 2, n), 2_000_000, r.values["geomean_ms"])
		r.set("store.loaded_records", float64(loaded))
	}
	if cerr := f.close(); err == nil {
		err = cerr
	}
	return err
}
