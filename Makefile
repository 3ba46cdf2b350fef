# Build/test targets. The tier-1 flow is `make check`: build, vet, the
# default test suite, and a short race-detector pass over every package
# (exercising the interner's and the parallel engine's concurrency claims).
# `make test-short` is the <60s developer loop; `make bench` runs the
# engine microbenchmarks; the bench-* targets run one benchmark gate each.
# The layered end-to-end benchmark is `bash vs3perf/run.sh` (its own Go
# module; `make vs3perf-vet` builds and tests it offline).

GO ?= go

.PHONY: all build vet test test-short test-race test-differential fuzz-smoke serve-smoke cluster-smoke rpc-smoke restart-smoke compact-smoke bench-cluster bench-lia bench-warm bench-rpc bench-compact bench vs3perf-vet check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full default suite (the bench package runs its representative search
# subset; the exhaustive sweep needs VS3_SEARCH=1).
test: build vet
	$(GO) test ./...

# Fast unit tests only: skips the search, cross-check, and table-rendering
# integration tests (see README "Test suites").
test-short: build vet
	$(GO) test -short ./...

# Race-detector pass over every package: the shared SMT solver, the formula
# interner, concurrent path scoring, the parallel ψ_Prog encoder, and the
# parallel benchmark runner.
test-race:
	$(GO) test -short -race ./...

# Differential tests for the incremental solving pipeline under the race
# detector (reused-vs-fresh SAT probes, switched-off decision variables vs
# the all-on instance (TestDecision), the SAT search pinned to recorded
# counters, verdicts and cores (TestGoldenSearch), clause-arena compaction
# against enumerated models (TestCompactionAgainstBruteForce),
# context-vs-fresh SMT verdicts, the contexts' literal-keyed encoding memo
# (TestStrash: re-encoding adds nothing, equal-literal gates are shared, a
# probe sweep's interning does not grow with formula size),
# fixpoint determinism, ψ_Prog byte-identity), plus the map-solver-vs-
# reference-BFS solution-set equivalence sweep: every examples/ problem with
# the CrossCheck hook on, randomized small lattices, and the randomized §6
# precondition-enumeration sweep (every group search the enumeration runs
# must return the same solution set from both enumerators). The lia line
# is the Fourier–Motzkin sweep: lia.Check and the persistent LinChecker vs
# brute-force small-domain enumeration over random general linear systems.
# The store lines are the persistence sweep: record round-trips, checksum /
# version / params corruption recovery, the flush requeue / retry-budget /
# drop-warning regressions, the compaction suite (duplicate-heavy shrink,
# crash-mid-compaction recovery at every stage, stale tmp generations,
# header re-checks, concurrent appends), and the warm-vs-cold plus
# warm-vs-compacted verdict-identity sweeps over every examples/ problem (a
# reopened — or compacted-then-reopened — knowledge store must prove exactly
# what the cold lifetime proved). The last line's search tests are the
# search-record sweep: every replayed group-search result of every examples/
# problem equals a fresh enumeration element for element with zero rejects,
# tampered, re-keyed and Stop-cut records are never trusted, and a tampered
# store still reaches the same verdicts. The TestPlan tests (first line) pin
# the grounding plan's edge cases against the multi-pass grounding oracle:
# concurrent probes sharing environments under the race detector, an
# instance junction absorbed early so the collect pass must run
# (TestPlanAbsorbedInstanceCollects), a MaxInstances cut that needs
# converged at round 2 (TestPlanTruncatedRoundsConverge), one environment
# per candidate set (TestPlanSharedEnvironment), the memo cap
# (TestPlanMemoBounded), and the allocations of re-grounding warmed plans
# (TestPlanGroundAllocs, at its -race count); the last line holds
# three sweeps over every examples/ problem and every DefaultSuite cell: the
# grounding sweep (every probe grounded both ways must intern to the same
# node; -v prints the probes, plan probes and distinct environments), the
# cone sweep (every context probe re-decided with all SAT variables switched
# on must reach the same verdict), and the GOMAXPROCS sweep (every cell run
# at GOMAXPROCS 1 and 4 must give the same verdicts, steps, invariants and
# preconditions).
test-differential:
	$(GO) test -short -race -run 'TestReusedVsFresh|TestSolveAssuming|TestSolveReuse|TestDecision|TestGoldenSearch|TestCompactionAgainstBruteForce|TestContext|TestStrash|TestPlan|TestFixpointDeterministic|TestFixpointIncremental|TestPsiProg|TestCFPIncremental' \
		./internal/sat/ ./internal/smt/ ./internal/fixpoint/ ./internal/cbi/
	$(GO) test -race -run 'TestRandomGeneralAgainstBox|TestRandomDifferenceAgainstBox|TestLinChecker|TestDiffChecker' ./internal/lia/
	$(GO) test -race -run 'TestRoundTrip|TestLinCheckerVerdict|TestFormulaKey|TestCorruption|TestDedup|TestFlushDurable|TestFlushRequeues|TestFlushRetryBudget|TestFlushPartialWrite|TestDropWarning|TestCompact|TestOutcomeDigest|TestSearchRecord' ./internal/store/
	$(GO) test -race -run 'TestWarmStart|TestStoreParamsMismatch|TestWarmLemma' ./internal/smt/
	$(GO) test -run 'TestMapVsBFS|TestWarmVsCold|TestWarmVsCompacted|TestSearchReplayIdentical|TestSearchRecord' ./internal/optimal/ ./internal/bench/ ./internal/precond/
	$(GO) test -run 'TestGroundPlanMatchesOracle|TestConeProbesMatchAllOn|TestSearchSameAtAnyGOMAXPROCS' -v ./internal/smt/

# Time-boxed fuzzing of the VS3R decoders (frame reader, request and
# response payloads), the knowledge store's log-line decoder plus record
# replay, its header check on open (a fuzzed header line must either warm
# or start cold with a fresh header), its outcome-digest (bloom) decoder,
# the spec-file lexer and parser, and the vs3d NDJSON batch endpoint (a
# fuzzed body must get a 4xx, or a 200 with exactly one line per item),
# 10s per target. Plain `go test` already replays the committed seed
# corpora under internal/rpc/testdata/fuzz, internal/store/testdata/fuzz,
# internal/lang/testdata/fuzz and internal/serve/testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreRecord$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreHeader$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBloomDigest$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpecFile$$' -fuzztime 10s ./internal/lang/
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRequest$$' -fuzztime 10s ./internal/serve/

# End-to-end check of the vs3d HTTP daemon: boots the real server on an
# ephemeral port, verifies a spec with all three methods, infers
# preconditions, reads /v1/stats, and shuts down cleanly.
serve-smoke:
	$(GO) test -run TestServeSmoke -v ./cmd/vs3d/

# End-to-end check of the scale-out tier: the real vs3router daemon over TCP
# in front of two real vs3d backends — affinity headers, batch split/merge,
# failover after a backend death, stats, clean shutdown.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./cmd/vs3router/

# End-to-end check of the binary VS3R transport, the router's only backend
# wire: real daemons over TCP — single verifies through the router's rpc
# front, batch items routed over rpc backends, no traffic for a backend that
# does not advertise rpc, mid-flight cancellation reaching the backend,
# hedging with counters on /metrics, and the vs3load -proto rpc harness path.
rpc-smoke:
	$(GO) test -run 'TestRPCSmoke|TestLoadProtoRPC' -count=1 -v ./cmd/vs3router/

# End-to-end check of warm-start persistence: the real vs3d daemon booted
# twice on one -store directory (second lifetime must replay the solved
# problem with zero SMT work), plus the vs3load mid-test restart scenario
# (drain, reopen the store, one corpus pass back at warm-path latency).
restart-smoke:
	$(GO) test -run TestWarmRestart -count=1 -v ./cmd/vs3d/
	$(GO) test -run TestRestartRecovery -count=1 -v ./internal/load/

# End-to-end check of generational log compaction: a store-backed backend
# solves the smoke corpus, its log is duplicated 6x, a second lifetime
# compacts it over POST /v1/compact while serving (>=3x on-disk shrink,
# identical verdicts, zero fresh work), and a third lifetime restarts fully
# warm on the compacted generation.
compact-smoke:
	$(GO) test -run TestCompactSmoke -count=1 -v ./cmd/vs3router/

# Head-to-head routing benchmark: single node vs affinity routing vs random
# routing over 2 backends on the default corpus, asserting affinity wins on
# from-scratch SMT queries and warm cache-hit ratio. `make check` runs it too;
# this target runs it alone.
bench-cluster:
	$(GO) test -run TestClusterBench -count=1 -v ./cmd/vs3router/

# Incremental-FM benchmark: the persistent general-LIA checker (LinChecker)
# vs from-scratch Fourier–Motzkin elimination on the non-unit-coefficient
# family, asserting identical verdicts per cell and a >=3x reduction in
# from-scratch eliminations. `make check` runs it too.
bench-lia:
	$(GO) test -run TestLIABench -count=1 -v ./internal/bench/

# Warm-restart benchmark: the default suite run cold on a fresh knowledge
# store, then again reopening it — a daemon restart. Asserts identical
# verdicts per cell, a >=5x reduction in from-scratch work (SMT queries +
# Fourier–Motzkin eliminations), and warm work within 2x of the committed
# BENCH_8.json's recorded warm work (read-only). `make check` runs it too.
bench-warm:
	$(GO) test -run 'TestWarmBench|TestWithinWarmBaseline' -count=1 -v ./internal/bench/

# Hedging benchmark: hedged vs unhedged routing over a store-backed
# 2-backend fleet with one stalled backend, asserting hedging wins p99 at
# identical verdicts. The gate is a wall-clock comparison, so the test skips
# under plain `go test ./...` and only runs with VS3_FLEET_BENCH=1, as here.
bench-rpc:
	VS3_FLEET_BENCH=1 $(GO) test -run TestRPCBench -count=1 -v ./cmd/vs3router/

# Compaction + store-aware routing benchmark: part A duplicates a warmed
# store's log 6x and gates a >=3x on-disk shrink from compaction with a
# zero-work warm restart; part B reweights a warmed 2-backend fleet's hash
# ring and replays the corpus store-aware vs affinity-only over
# byte-identical store copies, gating that store-aware placement redoes
# strictly less from-scratch work at identical verdicts. Skips under plain
# `go test ./...`; runs with VS3_FLEET_BENCH=1, as here.
bench-compact:
	VS3_FLEET_BENCH=1 $(GO) test -run TestCompactBench -count=1 -v ./cmd/vs3router/

# Engine microbenchmarks: the parallel-engine comparisons from PR 1 plus the
# interning/hot-path benchmarks (cache-hit keying, structural equality,
# compiled fills, lattice search).
bench:
	$(GO) test -bench 'Valid(Sequential|Parallel)' -benchtime 2x -run - ./internal/smt/
	$(GO) test -bench 'LFP(Sequential|Parallel)' -benchtime 2x -run - ./internal/fixpoint/
	$(GO) test -bench 'FormulaEq|HashFormula|StringKey|Intern' -run - ./internal/logic/
	$(GO) test -bench 'ValidCacheHit' -run - ./internal/smt/
	$(GO) test -bench 'Fill|NegativeSolutions' -run - ./internal/optimal/ ./internal/template/

# Vet and test the vs3perf benchmark, its own Go module that `go build ./...`
# at the root never compiles, with vs3perf/run.sh's offline environment and
# caches under .bench_build/, so an API change the benchmark uses cannot
# break it unseen.
vs3perf-vet:
	b=$(CURDIR)/.bench_build && mkdir -p $$b/gocache $$b/gotmp $$b/home && cd vs3perf && \
		HOME=$$b/home XDG_CONFIG_HOME=$$b/home/.config GOPATH=$$b/home/go \
		GOCACHE=$$b/gocache GOTMPDIR=$$b/gotmp GOWORK=off GOPROXY=off \
		GOTOOLCHAIN=local GOFLAGS=-mod=mod sh -c '$(GO) vet ./... && $(GO) test ./...'

check: build vet test test-race test-differential

clean:
	$(GO) clean ./...
