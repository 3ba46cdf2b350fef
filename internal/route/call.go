package route

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/rpc"
	"repro/internal/stats"
)

// callResult is one request's buffered answer. err is non-nil only when no
// backend answered; status then carries the error status to return (502, or
// 499/504 when the caller's own context ended). A backend's own answer
// (429 shed, 5xx) is a result, not an error.
type callResult struct {
	status     int
	problemKey string
	backendID  string
	body       []byte
	err        error
}

// callOne executes req against b over its persistent VS3R pool. An error is
// a transport failure (or the caller's own cancellation): the backend never
// produced an answer.
func (r *Router) callOne(ctx context.Context, b *backend, req rpc.Request) callResult {
	c := b.rpcClient()
	if c == nil {
		return callResult{err: errNoRPC}
	}
	start := time.Now()
	resp, err := c.Call(ctx, req)
	if err != nil {
		return callResult{err: err}
	}
	r.observeLatency(time.Since(start))
	if resp.Backend != "" {
		id := resp.Backend
		b.serverID.Store(&id)
	}
	return callResult{status: resp.Status, problemKey: resp.ProblemKey, backendID: resp.Backend, body: resp.Body}
}

// errNoRPC is callOne's error for a backend that advertises no rpc endpoint.
var errNoRPC = errors.New("backend advertises no rpc endpoint")

// failed records a transport failure of b: it leaves rotation until the
// next sweep and the hop counts as a failover. When the caller's own
// context ended the call the backend is not at fault, so nothing is
// recorded.
func (r *Router) failed(ctx context.Context, b *backend) {
	if ctx.Err() != nil {
		return
	}
	b.healthy.Store(false)
	b.ctr.Add(stats.BackendFailovers, 1)
	r.ctr.Add(stats.RouterFailovers, 1)
}

// unanswered is execute's terminal answer when no backend answered. A caller
// whose own context ended (client disconnect, client or router timeout)
// gets 499/504 and is not counted as a no-backend failure.
func (r *Router) unanswered(ctx context.Context, err error) callResult {
	switch ctx.Err() {
	case context.DeadlineExceeded:
		return callResult{status: http.StatusGatewayTimeout, err: ctx.Err()}
	case context.Canceled:
		return callResult{status: statusClientClosed, err: ctx.Err()}
	}
	r.ctr.Add(stats.RouterNoBackend, 1)
	return callResult{status: http.StatusBadGateway, err: fmt.Errorf("no live backend: %w", err)}
}

// statusClientClosed is the serving tier's status for a request its caller
// abandoned (nginx's 499, as vs3d reports aborted runs).
const statusClientClosed = 499

// observeLatency feeds one completed-call latency into the rolling window
// behind the adaptive hedge delay.
func (r *Router) observeLatency(d time.Duration) {
	r.latMu.Lock()
	r.lats[r.latNext] = d
	r.latNext = (r.latNext + 1) % len(r.lats)
	if r.latN < len(r.lats) {
		r.latN++
	}
	r.latMu.Unlock()
}

// hedgeDelay is how long the owner backend gets before the same request is
// fired at its ring successor: the rolling p95 of recent backend latency,
// clamped to [HedgeMin, HedgeMax]. Under 20 samples the estimate is noise,
// so a fixed 25ms stands in.
func (r *Router) hedgeDelay() time.Duration {
	r.latMu.Lock()
	n := r.latN
	sample := make([]time.Duration, n)
	copy(sample, r.lats[:n])
	r.latMu.Unlock()
	if n < 20 {
		return 25 * time.Millisecond
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	p95 := sample[n*95/100]
	if p95 < r.cfg.HedgeMin {
		return r.cfg.HedgeMin
	}
	if p95 > r.cfg.HedgeMax {
		return r.cfg.HedgeMax
	}
	return p95
}

// execute routes one request over the candidate sequence for its key. Under
// Affinity with hedging enabled the first two candidates race (owner first,
// successor after the adaptive delay); any remaining candidates serve as the
// sequential failover tail, exactly as without hedging. Every front
// (proxySingle, ServeRPC, each batch item) reaches backends only through
// here. The result is terminal: err != nil means no backend answered.
func (r *Router) execute(ctx context.Context, key, client string, req rpc.Request) callResult {
	req.Client = client
	cands := r.candidates(key)
	rest := cands
	lastErr := errors.New("no backends configured")
	if r.cfg.Hedge && r.cfg.Policy == Affinity && len(cands) >= 2 {
		res, done := r.raceTwo(ctx, r.backends[cands[0]], r.backends[cands[1]], req)
		if done {
			return res
		}
		lastErr = res.err
		rest = cands[2:] // both racers failed at transport level; fall through
	}
	for _, idx := range rest {
		if ctx.Err() != nil {
			break
		}
		b := r.backends[idx]
		res := r.callOne(ctx, b, req)
		if res.err == nil {
			b.ctr.Add(stats.BackendRouted, 1)
			return res
		}
		// Transport failure: mark the backend down and rehash to the next
		// node in ring order.
		r.failed(ctx, b)
		lastErr = res.err
	}
	return r.unanswered(ctx, lastErr)
}

// raceTwo runs the hedged race between the owner backend and its ring
// successor. The first transport-successful answer wins and is the only one
// forwarded (strict single-count: the loser's context is cancelled, which
// the backend treats as a client disconnect — its run aborts and its verdict
// is discarded unseen). Returns done=false only when both sides failed at
// the transport level, handing the key to the sequential failover tail.
func (r *Router) raceTwo(ctx context.Context, owner, succ *backend, req rpc.Request) (callResult, bool) {
	type raceRes struct {
		res   callResult
		b     *backend
		hedge bool
	}
	rctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	resc := make(chan raceRes, 2)
	launch := func(b *backend, hedge bool) {
		go func() {
			resc <- raceRes{res: r.callOne(rctx, b, req), b: b, hedge: hedge}
		}()
	}
	launch(owner, false)

	timer := time.NewTimer(r.hedgeDelay())
	defer timer.Stop()
	inflight := 1
	fired := false
	select {
	case rr := <-resc:
		inflight--
		if rr.res.err == nil {
			rr.b.ctr.Add(stats.BackendRouted, 1)
			return rr.res, true
		}
		r.failed(ctx, rr.b)
	case <-timer.C:
		r.ctr.Add(stats.RouterHedgeFired, 1)
		launch(succ, true)
		fired = true
		inflight = 2
	}
	if !fired {
		// The owner failed before the hedge delay elapsed; no race happened.
		// The successor is simply the next sequential candidate.
		res := r.callOne(rctx, succ, req)
		if res.err == nil {
			succ.ctr.Add(stats.BackendRouted, 1)
			return res, true
		}
		r.failed(ctx, succ)
		return res, false
	}
	var lastErr error
	for inflight > 0 {
		rr := <-resc
		inflight--
		if rr.res.err == nil {
			if rr.hedge {
				r.ctr.Add(stats.RouterHedgeWon, 1)
			}
			if inflight > 0 {
				// cancelAll (deferred) aborts the slower side; its eventual
				// answer lands in the buffered channel and is dropped.
				r.ctr.Add(stats.RouterHedgeCanceled, 1)
			}
			rr.b.ctr.Add(stats.BackendRouted, 1)
			return rr.res, true
		}
		lastErr = rr.res.err
		r.failed(ctx, rr.b)
	}
	return callResult{err: lastErr}, false
}
