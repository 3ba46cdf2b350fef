// Command vs3router is the horizontal scale-out front tier: it consistently
// hashes every request's problem key onto a fleet of vs3d backends, so each
// backend's interner, incremental smt.Context lanes, and unsat-core store
// stay hot for its slice of the keyspace (see internal/route and DESIGN.md
// §13). It health-checks the fleet, fails requests over to the next live
// node in ring order, and routes every /v1/batch item on its own. Requests
// reach backends only over the binary VS3R protocol, on persistent
// multiplexed connections to the endpoint each backend advertises in
// X-VS3-RPC; a backend that advertises none is not live (see DESIGN.md §16).
// HTTP stays the control plane (/healthz, /v1/stats) and the public edge.
//
// Usage:
//
//	vs3router -backend http://10.0.0.1:8080=2 -backend http://10.0.0.2:8080 \
//	          [-addr :8079] [-rpc :8078] [-policy affinity|random] [-replicas 128] \
//	          [-health-interval 2s] [-hedge] [-hedge-min 10ms] [-hedge-max 1s] \
//	          [-store-aware=true] [-id NAME]
//
// Each -backend flag names one vs3d base URL with an optional =WEIGHT ring
// share multiplier (default 1; a weight-2 backend owns about twice the
// keyspace of a weight-1 one). The older -backends comma-separated form is
// still accepted; the two may be mixed.
//
// -rpc ADDR additionally serves the binary VS3R protocol on ADDR, so bulk
// clients (cmd/vs3load -proto rpc) reach the fleet without per-request HTTP
// overhead. -hedge enables request hedging: when the key's owner has not
// answered within an adaptive delay (rolling p95 of backend latency, clamped
// to [-hedge-min, -hedge-max]), the request is also fired at the ring
// successor and the loser is cancelled.
//
// -store-aware (default true) enables store-aware placement: the health
// sweep keeps a bloom digest of each backend's solved problem keys, and a
// request whose key a live backend's digest claims routes there ahead of
// plain ring order — after a reweight or node change, known problems go back
// to the node that already holds their knowledge instead of being re-derived
// from scratch (see DESIGN.md §17).
//
// Endpoints:
//
//	POST /v1/verify         routed by problem key
//	POST /v1/preconditions  routed by problem key
//	POST /v1/batch          each item routed by its problem key, results merged
//	GET  /v1/stats          router counters + per-backend rows + fleet totals
//	GET  /metrics           Prometheus text format
//	GET  /healthz           200 while at least one backend is live
//
// -policy random exists as the control arm for benchmarks: same fleet, no
// affinity. Production use is affinity.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/route"
	"repro/internal/rpc"
)

func main() {
	addr := flag.String("addr", ":8079", "listen address")
	rpcAddr := flag.String("rpc", "", "binary rpc listen address (empty = HTTP only)")
	backends := flag.String("backends", "", "comma-separated vs3d base URLs")
	var urls []string
	var weights []float64
	flag.Func("backend", "one vs3d base URL, optionally URL=WEIGHT (repeatable)", func(v string) error {
		u, w, err := parseBackend(v)
		if err != nil {
			return err
		}
		urls = append(urls, u)
		weights = append(weights, w)
		return nil
	})
	policy := flag.String("policy", "affinity", "routing policy: affinity or random")
	replicas := flag.Int("replicas", 128, "virtual nodes per weight-1 backend on the hash ring")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "period between backend health sweeps")
	hedge := flag.Bool("hedge", false, "hedge slow requests at the ring successor")
	hedgeMin := flag.Duration("hedge-min", 10*time.Millisecond, "floor on the adaptive hedge delay")
	hedgeMax := flag.Duration("hedge-max", time.Second, "cap on the adaptive hedge delay")
	storeAware := flag.Bool("store-aware", true, "prefer backends whose knowledge-store digest claims a request's problem key")
	id := flag.String("id", "vs3router", "router identity reported in stats and metrics")
	flag.DurationVar(&rpcFrameTimeout, "rpc-write-timeout", rpcFrameTimeout, "per-frame rpc write deadline; a stalled peer's connection is torn down on expiry (negative = none)")
	flag.Parse()

	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
			weights = append(weights, 1)
		}
	}
	cfg := route.Config{
		Backends:       urls,
		Weights:        weights,
		Replicas:       *replicas,
		Policy:         route.Policy(*policy),
		HealthInterval: *healthInterval,
		Hedge:          *hedge,
		HedgeMin:       *hedgeMin,
		HedgeMax:       *hedgeMax,
		StoreAware:     *storeAware,
		ID:             *id,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vs3router:", err)
		os.Exit(1)
	}
	var rpcLn net.Listener
	if *rpcAddr != "" {
		rpcLn, err = net.Listen("tcp", *rpcAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vs3router:", err)
			os.Exit(1)
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, ln, rpcLn, cfg, log.Default()); err != nil {
		fmt.Fprintln(os.Stderr, "vs3router:", err)
		os.Exit(1)
	}
}

// parseBackend splits one -backend value into its URL and ring weight.
func parseBackend(v string) (url string, weight float64, err error) {
	url, weight = strings.TrimSpace(v), 1
	if i := strings.LastIndex(url, "="); i >= 0 {
		weight, err = strconv.ParseFloat(url[i+1:], 64)
		if err != nil || weight <= 0 {
			return "", 0, fmt.Errorf("backend %q: weight must be a positive number", v)
		}
		url = url[:i]
	}
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return "", 0, fmt.Errorf("backend %q: empty URL", v)
	}
	return url, weight, nil
}

// run serves on ln (and the binary rpc front on rpcLn, when non-nil) until
// ctx is cancelled, then shuts down gracefully. Split from main so the
// cluster smoke test and benchmark can drive the real router on an
// ephemeral port.
// rpcFrameTimeout is the per-frame write deadline run hands the rpc server
// (main overrides it from -rpc-write-timeout).
var rpcFrameTimeout = 10 * time.Second

func run(ctx context.Context, ln, rpcLn net.Listener, cfg route.Config, logger *log.Logger) error {
	router, err := route.New(cfg)
	if err != nil {
		return err
	}
	defer router.Close()
	var rpcSrv *rpc.Server
	if rpcLn != nil {
		rpcSrv = rpc.NewServer(router, rpc.ServerConfig{Logf: logger.Printf, WriteTimeout: rpcFrameTimeout})
		router.AdvertiseRPC(rpc.AdvertiseAddr(rpcLn.Addr()))
		go func() {
			if err := rpcSrv.Serve(rpcLn); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Printf("vs3router: rpc serve: %v", err)
			}
		}()
	}
	srv := &http.Server{Handler: router.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if rpcLn != nil {
		logger.Printf("vs3router: serving on %s (binary rpc on %s), %s routing over %d backends",
			ln.Addr(), rpcLn.Addr(), cfg.Policy, len(cfg.Backends))
	} else {
		logger.Printf("vs3router: serving on %s, %s routing over %d backends",
			ln.Addr(), cfg.Policy, len(cfg.Backends))
	}
	select {
	case err := <-errc:
		if rpcSrv != nil {
			rpcLn.Close()
			rpcSrv.Close()
		}
		return err
	case <-ctx.Done():
	}
	logger.Printf("vs3router: shutting down")
	if rpcSrv != nil {
		rpcSrv.StartDrain()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	if rpcSrv != nil {
		for {
			_, streams, _, _ := rpcSrv.Stats()
			if streams == 0 || shutCtx.Err() != nil {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		rpcLn.Close()
		rpcSrv.Close()
	}
	if shutErr != nil {
		return shutErr
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
