# Build/test targets. The tier-1 flow is `make check`: build, vet, the
# default test suite, and a short race-detector pass over every package
# (exercising the interner's and the parallel engine's concurrency claims).
# `make test-short` is the <60s developer loop; `make bench` runs the
# engine microbenchmarks; `make bench-json` writes a machine-readable
# BENCH_$(BENCH_N).json report; `make profile` captures CPU/heap profiles
# of the default benchmark suite.

GO ?= go

# Report number for bench-json output (BENCH_2.json, BENCH_3.json, ...).
BENCH_N ?= 4

# Baseline report that bench-compare diffs against.
BENCH_BASE ?= BENCH_3.json

.PHONY: all build vet test test-short test-race test-differential fuzz-smoke serve-smoke cluster-smoke rpc-smoke restart-smoke compact-smoke bench-cluster bench-lia bench-warm bench-rpc bench-compact bench bench-json bench-compare bench-quick profile check clean

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
# interner, the parallel fixed-point worklist, the parallel ψ_Prog encoder,
# and the parallel benchmark runner.
test-race:
	$(GO) test -short -race ./...

# Differential tests for the incremental solving pipeline under the race
# detector (reused-vs-fresh SAT probes, switched-off decision variables vs
# the all-on instance (TestDecision), context-vs-fresh SMT verdicts,
# fixpoint determinism, ψ_Prog byte-identity), plus the map-solver-vs-legacy-
# BFS solution-set equivalence sweep: every examples/ problem with the
# CrossCheck hook on, randomized small lattices, and the randomized §6
# precondition-enumeration sweep (both enumerators must return equal
# maximally-weak precondition sets modulo logical equivalence). The lia line
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
# the grounding plan's edge cases against the multi-pass grounding oracle,
# concurrent probes under the race detector included; the last line holds
# two sweeps over every examples/ problem and every DefaultSuite cell: the
# grounding sweep (every probe grounded both ways must intern to the same
# node) and the cone sweep (every context probe re-decided with all SAT
# variables switched on must reach the same verdict).
test-differential:
	$(GO) test -short -race -run 'TestReusedVsFresh|TestSolveAssuming|TestSolveReuse|TestDecision|TestContext|TestPlan|TestFixpointDeterministic|TestFixpointIncremental|TestPsiProg|TestCFPIncremental' \
		./internal/sat/ ./internal/smt/ ./internal/fixpoint/ ./internal/cbi/
	$(GO) test -race -run 'TestRandomGeneralAgainstBox|TestRandomDifferenceAgainstBox|TestLinChecker|TestDiffChecker' ./internal/lia/
	$(GO) test -race -run 'TestRoundTrip|TestLinCheckerVerdict|TestFormulaKey|TestCorruption|TestDedup|TestFlushDurable|TestFlushRequeues|TestFlushRetryBudget|TestFlushPartialWrite|TestDropWarning|TestCompact|TestOutcomeDigest|TestSearchRecord' ./internal/store/
	$(GO) test -race -run 'TestWarmStart|TestStoreParamsMismatch|TestWarmLemma' ./internal/smt/
	$(GO) test -run 'TestMapVsBFS|TestCompareParallel|TestWarmVsCold|TestWarmVsCompacted|TestSearchReplayIdentical|TestSearchRecord' ./internal/optimal/ ./internal/bench/ ./internal/precond/
	$(GO) test -run 'TestGroundPlanMatchesOracle|TestConeProbesMatchAllOn' -v ./internal/smt/

# Time-boxed fuzzing of the VS3R decoders (frame reader, request and
# response payloads), the knowledge store's log-line decoder plus record
# replay, its header check on open (a fuzzed header line must either warm
# or start cold with a fresh header), its outcome-digest (bloom) decoder,
# and the spec-file lexer and parser, 10s per target. Plain
# `go test` already replays the committed seed corpora under
# internal/rpc/testdata/fuzz, internal/store/testdata/fuzz and
# internal/lang/testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreRecord$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreHeader$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBloomDigest$$' -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpecFile$$' -fuzztime 10s ./internal/lang/

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

# Head-to-head routing benchmark (the tentpole proof for PR 6): single node
# vs affinity routing vs random routing over 2 backends on the default
# corpus, asserting affinity wins on from-scratch SMT queries and warm
# cache-hit ratio. Writes BENCH_6.json.
bench-cluster:
	VS3_BENCH_OUT=$(CURDIR)/BENCH_6.json $(GO) test -run TestClusterBench -count=1 -v ./cmd/vs3router/

# Incremental-FM benchmark (the tentpole proof for PR 7): the persistent
# general-LIA checker (LinChecker) vs from-scratch Fourier–Motzkin
# elimination on the non-unit-coefficient family, asserting identical
# verdicts per cell and a >=3x reduction in from-scratch eliminations.
# Writes BENCH_7.json.
bench-lia:
	VS3_BENCH_OUT=$(CURDIR)/BENCH_7.json $(GO) test -run TestLIABench -count=1 -v ./internal/bench/

# Warm-restart benchmark (the tentpole proof for PR 8): the default suite run
# cold on a fresh knowledge store, then again reopening it — a daemon
# restart. Asserts identical verdicts per cell and a >=5x reduction in
# from-scratch work (SMT queries + Fourier–Motzkin eliminations); the
# committed BENCH_8.json doubles as the regression baseline (the warm arm
# must stay within 2x of its recorded work) and is rewritten on success.
bench-warm:
	VS3_BENCH_BASE=$(CURDIR)/BENCH_8.json VS3_BENCH_OUT=$(CURDIR)/BENCH_8.json $(GO) test -run TestWarmBench -count=1 -v ./internal/bench/

# Hedging benchmark: hedged vs unhedged routing over a store-backed
# 2-backend fleet with one stalled backend, asserting hedging wins p99 at
# identical verdicts. The gate is a wall-clock comparison, so the test skips
# under plain `go test ./...` and only runs here. BENCH_9.json is the
# committed record of the PR 9 transport comparison (VS3R vs HTTP/JSON,
# `benchtab -table 9` renders it); this target no longer rewrites it.
bench-rpc:
	VS3_BENCH_RPC=1 $(GO) test -run TestRPCBench -count=1 -v ./cmd/vs3router/

# Compaction + store-aware routing benchmark (the tentpole proof for PR 10):
# part A duplicates a warmed store's log 6x and gates a >=3x on-disk shrink
# from compaction with a zero-work warm restart; part B reweights a warmed
# 2-backend fleet's hash ring and replays the corpus store-aware vs
# affinity-only over byte-identical store copies, gating that store-aware
# placement redoes strictly less from-scratch work at identical verdicts.
# Writes BENCH_10.json (`benchtab -table 10` renders the committed report).
bench-compact:
	VS3_BENCH_OUT=$(CURDIR)/BENCH_10.json $(GO) test -run TestCompactBench -count=1 -v ./cmd/vs3router/

# Engine microbenchmarks: the parallel-engine comparisons from PR 1 plus the
# interning/hot-path benchmarks (cache-hit keying, structural equality,
# compiled fills, lattice search).
bench:
	$(GO) test -bench 'Valid(Sequential|Parallel)' -benchtime 2x -run - ./internal/smt/
	$(GO) test -bench 'LFP(Sequential|Parallel)' -benchtime 2x -run - ./internal/fixpoint/
	$(GO) test -bench 'FormulaEq|HashFormula|StringKey|Intern' -run - ./internal/logic/
	$(GO) test -bench 'ValidCacheHit' -run - ./internal/smt/
	$(GO) test -bench 'Fill|NegativeSolutions' -run - ./internal/optimal/ ./internal/template/

# Machine-readable benchmark report: runs the default representative suite
# and writes BENCH_$(BENCH_N).json (per-cell wall time, SMT queries, cache
# hits) for tracking the perf trajectory across PRs.
bench-json:
	$(GO) run ./cmd/benchtab -json BENCH_$(BENCH_N).json

# Re-run the default suite and print a per-cell speedup table against the
# baseline report (set BENCH_BASE to diff against another BENCH_N.json).
bench-compare:
	$(GO) run ./cmd/benchtab -compare $(BENCH_BASE)

# Fast local sanity: one task (List Delete) across all three methods — one
# cell per algorithm, a few seconds end to end.
bench-quick:
	$(GO) run ./cmd/benchtab -quick

# CPU/heap profiles of the default suite (sequential, so the profile is not
# dominated by scheduler noise). Inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/benchtab -json /dev/null -parallel 1 -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with: $(GO) tool pprof cpu.prof"

check: build vet test test-race test-differential

clean:
	$(GO) clean ./...
