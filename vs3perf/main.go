// Command vs3perf is the repository's end-to-end and per-layer benchmark.
//
// It runs one workload per invocation, checks every verdict against a table
// written by hand, and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (timings taken with
// tracing off); with -trace 1 they are the per-layer ones, taken from a
// second, traced measurement in the same process (spans recorded around
// the benchmark's calls into each layer, plus a CPU profile attributed per
// package), together with that measurement's overhead against the
// untraced one.
//
// Workloads:
//
//	engine-cold   the pinned bench.DefaultSuite(), a fresh Verifier per cell, no store
//	engine-warm   the same cells against a knowledge store filled in set-up and reopened
//	fleet-fresh   router + two backends over VS3R; every request a never-seen spec
//	fleet-replay  the same fleet on stores warmed from load.DefaultCorpus(); outcome replay
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash vs3perf/run.sh --workload engine-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"engine-cold":  engineCold,
	"engine-warm":  engineWarm,
	"fleet-fresh":  fleetFresh,
	"fleet-replay": fleetReplay,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload: engine-cold, engine-warm, fleet-fresh or fleet-replay")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "run length; request and pass counts are fixed multiples of it")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for stores, traces and profiles")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "vs3perf: unknown -workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "vs3perf: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	work, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vs3perf:", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := newRun(*workload, *seed, *seconds, *trace == 1, *out, work)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "vs3perf: %s: %v\n", *workload, err)
		return 1
	}
	if r.trace {
		if err := r.writeTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "vs3perf:", err)
			return 1
		}
	}
	return r.print()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports, with their
// units. An operation is one suite cell on the engine workloads and one
// client request on the fleet workloads.
var endToEnd = []string{
	"setup_s:s", "suite_s:s", "geomean_ms:ms", "throughput_ops:1/s", "retained_heap_mb:MB",
}

// perLayer lists every per-layer metric a traced run reports, on every
// workload; a layer the workload does not reach reads 0.
var perLayer = []string{
	"op.p50_ms:ms", "op.p95_ms:ms", "op.drift_ratio:ratio",
	"smt.queries:count", "smt.cache_hits:count", "smt.hit_ratio:ratio", "smt.contexts:count",
	"smt.assumption_probes:count", "smt.lemma_reuse:count",
	"lia.fm_scratch:count", "lia.fm_incremental:count", "lia.fm_cube_hits:count", "lia.fm_cap_hits:count",
	"optimal.core_pruned:count", "optimal.core_evicted:count",
	"fixpoint.lfp_ms:ms", "fixpoint.gfp_ms:ms", "fixpoint.steps:count",
	"cbi.cfp_ms:ms", "cbi.models:count", "precond.ms:ms",
	"spec.build_ms:ms", "vc.paths_ms:ms", "core.new_ms:ms", "core.verify_ms:ms",
	"store.open_ms:ms", "store.loaded_records:count", "store.verdict_hits:count",
	"store.warm_lemmas:count", "store.warm_cores:count", "store.outcome_hits:count",
	"store.appended:count", "store.flush_ms:ms", "store.log_bytes:bytes",
	"serve.handle_ms:ms", "serve.overhead_ms:ms", "serve.problem_hits:count", "lang.parse_ms:ms",
	"route.overhead_ms:ms", "route.store_hits:count", "rpc.requests:count", "rpc.conns:count",
	"stats.fetch_ms:ms",
	"runtime.gc_cycles:count", "runtime.alloc_mb_per_op:MB",
	"cpu.sat:%", "cpu.smt:%", "cpu.lia:%", "cpu.logic:%", "cpu.optimal:%", "cpu.fixpoint:%",
	"cpu.cbi:%", "cpu.template:%", "cpu.store:%", "cpu.serve:%", "cpu.route:%", "cpu.rpc:%",
	"cpu.stats:%", "cpu.net_http:%", "cpu.json:%", "cpu.runtime:%", "cpu.gc:%",
	"heap.smt_mb:MB", "heap.sat_mb:MB", "heap.lia_mb:MB", "heap.logic_mb:MB", "heap.stats_mb:MB",
	"heap.store_mb:MB", "heap.serve_mb:MB",
	"trace.overhead_pct:%", "trace.spans:count", "calib.kernel_ms:ms",
}

// print writes the human-readable report and then the JSON result line.
// It returns the exit code: 1 when any verdict was wrong.
func (r *run) print() int {
	names := perLayer
	if !r.trace {
		names = endToEnd
	}
	metrics := map[string]metric{}
	f := r.speedFactor()
	fmt.Printf("vs3perf %s seed=%d seconds=%d trace=%v\n", r.workload, r.seed, r.seconds, r.trace)
	if len(r.calib) > 0 {
		fmt.Printf("  times scaled by %.4f = %.1fms reference / %.3fms kernel median over %d samples\n",
			f, calibRefMS, median(r.calib), len(r.calib))
	}
	fmt.Printf("  %-26s %14s %14s\n", "metric", "scaled", "raw")
	for _, nu := range names {
		name, unit, _ := strings.Cut(nu, ":")
		raw := r.values[name]
		v := raw
		switch {
		case name == "calib.kernel_ms": // the speed measurement itself stays raw
		case unit == "s" || unit == "ms":
			v *= f
		case unit == "1/s":
			v /= f
		}
		metrics[name] = metric{Value: v, Unit: unit}
		fmt.Printf("  %-26s %14.4f %14.4f %s\n", name, v, raw, unit)
	}
	notes := append([]string(nil), r.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Println("  #", n)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vs3perf:", err)
		return 1
	}
	fmt.Println(string(line))
	if r.wrong > 0 {
		return 1
	}
	return 0
}
