// Command vs3d serves the verifier as a long-lived HTTP daemon, amortizing
// the engine's caches (interned formulas, compiled fillers, incremental SMT
// contexts, the shared unsat-core store) across requests instead of
// rebuilding them per process. Scale horizontally by running N instances
// behind cmd/vs3router, which keeps each instance warm for its
// consistent-hash slice of the problem keyspace.
//
// Usage:
//
//	vs3d [-addr :8080] [-rpc :8081] [-rpc-write-timeout 10s] [-id NAME] [-pool N] [-queue N]
//	     [-timeout 60s] [-max-timeout 5m]
//	     [-store DIR] [-store-fsync] [-store-flush 250ms]
//	     [-store-compact] [-store-compact-min 1048576] [-store-compact-ratio 0.5]
//
// The daemon also serves the binary VS3R protocol on -rpc ADDR (default
// :8081; an empty value is refused): persistent multiplexed connections with
// per-stream cancellation (see internal/rpc and DESIGN.md §16), sharing the
// same session pool, fair queue, store, and stats as the HTTP surface. The
// endpoint is advertised in the X-VS3-RPC response header; a vs3router in
// front sends requests only over it, so a backend without it gets no traffic.
//
// With -store DIR the daemon opens an on-disk knowledge store in DIR:
// validity/consistency verdicts, theory lemmas, unsat cores, and whole
// solved-problem outcomes warm-load at startup and are written behind while
// serving, so a restarted daemon resumes with everything its predecessor
// learned instead of re-deriving it (see DESIGN.md §15). The append-only log
// is compacted generationally — automatically once it crosses
// -store-compact-min bytes with a garbage ratio above -store-compact-ratio,
// on demand via POST /v1/compact, or one-shot with -store-compact (compact
// and exit, for cron/maintenance windows; see DESIGN.md §17).
//
// Endpoints (see internal/serve and the README "Serving" section):
//
//	POST /v1/verify         run one algorithm on a vs3 spec
//	POST /v1/preconditions  infer maximally-weak preconditions (§6)
//	POST /v1/batch          many problems, one NDJSON result stream
//	GET  /v1/stats          pool, queue, and solver-cache counters
//	GET  /metrics           the same counters in Prometheus text format
//	GET  /healthz           liveness probe (503 once draining)
//
// On SIGINT/SIGTERM the daemon drains: /healthz flips to 503 so routers
// stop sending new work, in-flight requests finish, then the process exits.
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
	"syscall"
	"time"

	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	rpcAddr := flag.String("rpc", ":8081", "binary rpc listen address (routers send requests only over it)")
	id := flag.String("id", "", "backend identity reported in X-VS3-Backend and stats (default vs3d-<host>-<pid>)")
	pool := flag.Int("pool", 0, "verifier sessions (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued requests beyond the pool before 429 (0 = 4×pool)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
	flag.DurationVar(&rpcFrameTimeout, "rpc-write-timeout", rpcFrameTimeout, "per-frame rpc write deadline; a stalled peer's connection is torn down on expiry (negative = none)")
	storeDir := flag.String("store", "", "directory of the on-disk knowledge store (empty = no persistence)")
	storeFsync := flag.Bool("store-fsync", false, "fsync every write-behind flush, not just drain/close")
	storeFlush := flag.Duration("store-flush", 0, "write-behind flush interval (0 = store default)")
	storeCompact := flag.Bool("store-compact", false, "compact the -store log to a fresh generation, then exit")
	compactMin := flag.Int64("store-compact-min", 0, "log bytes before auto-compaction considers running (0 = store default, 1MiB)")
	compactRatio := flag.Float64("store-compact-ratio", 0, "garbage ratio (dead bytes / log bytes) that triggers auto-compaction (0 = store default, 0.5)")
	flag.Parse()

	cfg := serve.Config{
		ID:             *id,
		Pool:           *pool,
		Queue:          *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	}
	if *storeCompact && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "vs3d: -store-compact requires -store DIR")
		os.Exit(1)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{
			Params:              cfg.Core.SMT.StoreParams(),
			Fsync:               *storeFsync,
			FlushInterval:       *storeFlush,
			CompactMinBytes:     *compactMin,
			CompactGarbageRatio: *compactRatio,
			Logf:                log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "vs3d: open store:", err)
			os.Exit(1)
		}
		cfg.Store = st
	}
	if *storeCompact {
		reclaimed, err := cfg.Store.Compact()
		if cerr := cfg.Store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "vs3d: compact store:", err)
			os.Exit(1)
		}
		log.Printf("vs3d: compacted store %s: reclaimed %d bytes", *storeDir, reclaimed)
		return
	}
	if *rpcAddr == "" {
		fmt.Fprintln(os.Stderr, "vs3d: -rpc must name a listen address")
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vs3d:", err)
		os.Exit(1)
	}
	rpcLn, err := net.Listen("tcp", *rpcAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vs3d:", err)
		os.Exit(1)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, ln, rpcLn, cfg, log.Default()); err != nil {
		fmt.Fprintln(os.Stderr, "vs3d:", err)
		os.Exit(1)
	}
}

// rpcFrameTimeout is the per-frame write deadline run hands the rpc server
// (main overrides it from -rpc-write-timeout).
var rpcFrameTimeout = 10 * time.Second

// run serves HTTP on ln and VS3R on rpcLn until ctx is cancelled, then
// drains: /healthz flips to 503 (taking the backend out of router rotation),
// in-flight requests finish (bounded by the configured max timeout), and the
// knowledge store — already fsynced by StartDrain before the healthz flip —
// is closed so records appended by those last in-flight requests reach disk
// too. Split from main so the smoke tests can drive the real daemon on
// ephemeral ports.
func run(ctx context.Context, ln, rpcLn net.Listener, cfg serve.Config, logger *log.Logger) error {
	backend := serve.New(cfg)
	rpcSrv := rpc.NewServer(backend, rpc.ServerConfig{Logf: logger.Printf, WriteTimeout: rpcFrameTimeout})
	backend.AdvertiseRPC(rpc.AdvertiseAddr(rpcLn.Addr()))
	backend.SetRPCStats(rpcSrv.Stats)
	go func() {
		if err := rpcSrv.Serve(rpcLn); err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Printf("vs3d: rpc serve: %v", err)
		}
	}()
	srv := &http.Server{Handler: backend.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if cfg.Store != nil {
		ss := cfg.Store.Stats()
		logger.Printf("vs3d: knowledge store %s: cold=%v loaded %d lemmas, %d cores, %d verdicts, %d consistency, %d outcomes, %d searches in %dms",
			cfg.Store.Dir(), ss.ColdStart, ss.LoadedLemmas, ss.LoadedCores, ss.LoadedVerdicts, ss.LoadedConsistency, ss.LoadedOutcomes, ss.LoadedSearches, ss.LoadMillis)
	}
	logger.Printf("vs3d: %s serving on %s (binary rpc on %s)", backend.ID(), ln.Addr(), rpcLn.Addr())
	select {
	case err := <-errc:
		rpcLn.Close()
		rpcSrv.Close()
		if cfg.Store != nil {
			_ = cfg.Store.Close()
		}
		return err
	case <-ctx.Done():
	}
	// Drain order: stop accepting new work on both surfaces first (healthz →
	// 503 takes the backend out of router rotation; GOAWAY tells rpc peers to
	// stop opening streams), let in-flight requests on both finish, then close
	// the store so records appended by those last requests reach disk.
	backend.StartDrain()
	rpcSrv.StartDrain()
	logger.Printf("vs3d: draining (healthz now 503), store flushed, waiting for in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.MaxTimeout+5*time.Second)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	// GOAWAY stopped new streams; wait (bounded by the same shutdown budget)
	// for in-flight streams to answer before cutting connections.
	for {
		_, streams, _, _ := rpcSrv.Stats()
		if streams == 0 || shutCtx.Err() != nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	rpcLn.Close()
	rpcSrv.Close()
	if cfg.Store != nil {
		if err := cfg.Store.Close(); err != nil {
			logger.Printf("vs3d: store close: %v", err)
		}
	}
	if shutErr != nil {
		return shutErr
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
