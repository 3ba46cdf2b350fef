package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/store"
)

// cellDeadline stops a cell that runs far past its usual time (the slowest
// takes about 3s on one core); the stopped cell counts as failed.
const cellDeadline = 60 * time.Second

// cellSpeedSamples is how many reference kernel samples are taken between
// two cells; the mean of the medians before and after a cell is its local
// speed (see engineEndToEnd).
const cellSpeedSamples = 3

// storeOpens is how many times set-up opens a store; setup_s takes the
// median open.
const storeOpens = 3

// cell is one (task, method) pair of the pinned suite with its expected
// verdict.
type cell struct {
	name   string
	task   bench.Task
	method core.Method
	want   bool
}

// suiteCells expands bench.DefaultSuite() into its 19 cells, each paired
// with its verdict from engineExpect. A cell without an expectation is an
// error: the suite changed and the table must be extended by hand.
func suiteCells() ([]cell, error) {
	var cells []cell
	for _, t := range bench.DefaultSuite() {
		methods := t.Methods
		switch {
		case len(methods) > 0:
		case t.Kind == bench.Precondition:
			methods = []core.Method{core.GFP}
		default:
			methods = core.Methods
		}
		for _, m := range methods {
			k := cellKey{t.Name, t.Property, m}
			want, ok := engineExpect[k]
			if !ok {
				return nil, fmt.Errorf("no expected verdict for %s/%s/%v", t.Name, t.Property, m)
			}
			cells = append(cells, cell{name: fmt.Sprintf("%s/%s/%v", t.Name, t.Property, m), task: t, method: m, want: want})
		}
	}
	return cells, nil
}

// counters are one cell's work counters, read from its Verifier.
type counters struct {
	queries, cacheHits, contexts, probes, lemmaReuse int64
	fmScratch, fmIncremental, fmCubeHits, fmCapHits  int64
	corePruned, coreEvicted                          int64
	storeHits, warmLemmas, warmCores                 int64
}

func (c *counters) add(o counters) {
	c.queries += o.queries
	c.cacheHits += o.cacheHits
	c.contexts += o.contexts
	c.probes += o.probes
	c.lemmaReuse += o.lemmaReuse
	c.fmScratch += o.fmScratch
	c.fmIncremental += o.fmIncremental
	c.fmCubeHits += o.fmCubeHits
	c.fmCapHits += o.fmCapHits
	c.corePruned += o.corePruned
	c.coreEvicted += o.coreEvicted
	c.storeHits += o.storeHits
	c.warmLemmas += o.warmLemmas
	c.warmCores += o.warmCores
}

// cellResult is one run of one cell.
type cellResult struct {
	total, build, paths, newV, solve time.Duration
	ok, proved                       bool
	steps                            int
	work                             counters
	speed                            float64 // reference kernel ms around the cell
}

// runCell runs one cell the way bench.Runner does — a fresh problem and a
// fresh Verifier, attached to st when non-nil — timing each call into the
// engine's public surface.
func runCell(c cell, st *store.Store, tr *tracer, req int64) cellResult {
	var stopped atomic.Bool
	timer := time.AfterFunc(cellDeadline, func() { stopped.Store(true) })
	defer timer.Stop()
	cfg := core.Config{Knowledge: st}
	cfg.Fixpoint.Stop = stopped.Load

	var res cellResult
	var p *spec.Problem
	var v *core.Verifier
	var err error
	root := tr.id()
	start := time.Now()
	res.build = tr.timed(root, req, "bench.Task.Build", func() { p = c.task.Build() })
	res.paths = tr.timed(root, req, "spec.Problem.Paths", func() { p.Paths() })
	res.newV = tr.timed(root, req, "core.New", func() { v = core.New(cfg) })
	switch c.task.Kind {
	case bench.Precondition:
		res.solve = tr.timed(root, req, "core.Verifier.InferPreconditions", func() {
			pres, enum, perr := v.InferPreconditions(p)
			err = perr
			res.proved, res.steps, res.ok = len(pres) > 0, enum.Steps, !enum.Aborted
		})
	default:
		res.solve = tr.timed(root, req, "core.Verifier.Verify", func() {
			o, verr := v.Verify(p, c.method)
			err = verr
			res.proved, res.steps, res.ok = o.Proved, o.Steps, !o.Aborted
		})
	}
	end := time.Now()
	tr.record(root, 0, req, "cell "+c.name, start, end)
	res.total = end.Sub(start)
	if err != nil {
		res.ok = false
	}
	e := v.Engine()
	res.work = counters{
		queries: e.S.NumQueries(), cacheHits: e.S.NumCacheHits(), contexts: e.S.NumContexts(),
		probes: e.S.NumAssumptionProbes(), lemmaReuse: e.S.NumLemmaReuseHits(),
		fmScratch: e.S.NumFMScratch(), fmIncremental: e.S.NumFMIncremental(),
		fmCubeHits: e.S.NumFMCubeHits(), fmCapHits: e.S.NumFMCapHits(),
		corePruned: e.NumCorePruned(), coreEvicted: e.NumCoreEvicted(),
		storeHits:  e.S.NumStoreVerdictHits() + e.NumConsStoreHits(),
		warmLemmas: e.S.NumWarmLemmas(), warmCores: e.NumWarmCores(),
	}
	return res
}

// runPasses runs every cell once per pass, in an order drawn from the seed
// for each pass, and tallies the verdicts. results[p][i] is cell i's run in
// pass p.
func (r *run) runPasses(cells []cell, st *store.Store, passes int, salt int64) [][]cellResult {
	results := make([][]cellResult, passes)
	for p := range results {
		results[p] = make([]cellResult, len(cells))
		rng := rand.New(rand.NewSource(r.seed*1_000_003 + salt*101 + int64(p)))
		before := r.sampleSpeed(cellSpeedSamples)
		for _, i := range rng.Perm(len(cells)) {
			req := int64(p*len(cells) + i + 1)
			// A collection first makes the cell's time independent of the
			// garbage the previous cell left.
			runtime.GC()
			res := runCell(cells[i], st, r.tr, req)
			after := r.sampleSpeed(cellSpeedSamples)
			res.speed = (before + after) / 2
			before = after
			results[p][i] = res
			r.verdict(cells[i].name, res.ok, res.proved, cells[i].want)
		}
	}
	return results
}

// engineCold measures the pinned suite with no store. Set-up is one full
// pass that warms the process-global formula interner; the first pass in
// a process is 10% slower than later ones.
func engineCold(r *run) error {
	runtime.GOMAXPROCS(1)
	cells, err := suiteCells()
	if err != nil {
		return err
	}
	start := time.Now()
	warm := r.runPasses(cells, nil, 1, 0)
	r.set("setup_s", time.Since(start).Seconds())
	return r.measureEngine(cells, nil, warm[0], max(1, r.seconds/10))
}

// engineWarm measures the suite against a knowledge store that set-up
// filled with one cold pass (which also warms the interner) and reopened.
func engineWarm(r *run) error {
	runtime.GOMAXPROCS(1)
	cells, err := suiteCells()
	if err != nil {
		return err
	}
	dir := filepath.Join(r.work, "engine-store")
	opts := store.Options{Params: core.Config{}.SMT.StoreParams()}
	start := time.Now()
	st, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	r.runPasses(cells, st, 1, 0)
	if err := st.Close(); err != nil {
		return err
	}
	fill := time.Since(start)
	var opens []float64
	for i := 0; i < storeOpens; i++ {
		t0 := time.Now()
		st, err = store.Open(dir, opts)
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t0).Seconds())
		if i < storeOpens-1 {
			if err := st.Close(); err != nil {
				return err
			}
		}
	}
	r.set("setup_s", fill.Seconds()+median(opens))
	r.set("store.open_ms", median(opens)*1000)
	ss := st.Stats()
	if ss.ColdStart {
		st.Close()
		return fmt.Errorf("reopened store started cold")
	}
	r.set("store.loaded_records", float64(ss.LoadedLemmas+ss.LoadedCores+ss.LoadedVerdicts+ss.LoadedConsistency+ss.LoadedOutcomes))
	err = r.measureEngine(cells, st, nil, max(3, r.seconds/5))
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// measureEngine runs the measured passes untraced and reports the
// end-to-end metrics; on a traced run it repeats them with spans and a CPU
// profile on and reports the per-layer metrics from that repeat.
// op.drift_ratio compares the last measured pass with first, or with the
// first measured pass when first is nil.
func (r *run) measureEngine(cells []cell, st *store.Store, first []cellResult, passes int) error {
	plain := r.runPasses(cells, st, passes, 1)
	if first == nil {
		first = plain[0]
	}
	suite := r.engineEndToEnd(cells, first, plain)
	r.notef("engine: %d cells x %d passes at GOMAXPROCS=1 (single-core figures)", len(cells), passes)
	if !r.trace {
		return nil
	}
	var before storeCounters
	if st != nil {
		before = readStore(st)
	}
	var traced [][]cellResult
	m0 := readMem()
	prof, err := r.profile(func() { traced = r.runPasses(cells, st, passes, 2) })
	if err != nil {
		return err
	}
	m1 := readMem()
	r.setCPU(prof)
	if err := r.setHeap(); err != nil {
		return err
	}
	r.engineLayers(cells, traced)
	// Subtract the collection runPasses forces before every cell.
	r.setRuntime(m0, m1, len(cells)*passes)
	r.set("runtime.gc_cycles", r.values["runtime.gc_cycles"]-float64(len(cells)*passes))
	r.set("trace.overhead_pct", (sum(r.cellMedians(traced))/1000/suite-1)*100)
	if st != nil {
		t0 := time.Now()
		if err := st.Flush(); err != nil {
			return err
		}
		r.tr.record(r.tr.id(), 0, 0, "store.Flush", t0, time.Now())
		r.set("store.flush_ms", ms(time.Since(t0)))
		after := readStore(st)
		r.set("store.appended", float64(after.appended-before.appended))
		r.set("store.log_bytes", float64(after.logBytes))
	}
	return nil
}

// passTotal is the summed time of one pass's cells, in seconds.
func passTotal(pass []cellResult) float64 {
	t := 0.0
	for _, c := range pass {
		t += c.total.Seconds()
	}
	return t
}

// cellTimes returns one duration of cell i across passes, in seconds.
func cellTimes(results [][]cellResult, i int, pick func(cellResult) time.Duration) []float64 {
	out := make([]float64, len(results))
	for p := range results {
		out[p] = pick(results[p][i]).Seconds()
	}
	return out
}

// cellMedians returns each cell's median time across passes in ms, each
// run first brought to the run's median speed: multiplied by the run's
// median kernel time over the kernel time around the cell. The host's speed
// wanders within a run too, and a cell's neighbours sample it where the
// cell ran.
func (r *run) cellMedians(results [][]cellResult) []float64 {
	runSpeed := median(r.calib)
	var out []float64
	for i := range results[0] {
		ts := cellTimes(results, i, func(c cellResult) time.Duration {
			return time.Duration(float64(c.total) * runSpeed / c.speed)
		})
		out = append(out, median(ts)*1000)
	}
	return out
}

// engineEndToEnd sets the end-to-end metrics from per-cell medians across
// passes and returns suite_s.
func (r *run) engineEndToEnd(cells []cell, first []cellResult, results [][]cellResult) float64 {
	medians := r.cellMedians(results)
	var all []float64
	for i := range cells {
		for _, t := range cellTimes(results, i, func(c cellResult) time.Duration { return c.total }) {
			all = append(all, t*1000)
		}
	}
	suite := sum(medians) / 1000
	for i, c := range cells {
		r.notef("cell %-45s %9.2fms median over %d passes", c.name, medians[i], len(results))
	}
	r.set("suite_s", suite)
	r.set("geomean_ms", geomean(medians))
	r.set("op.p50_ms", quantile(all, 0.50))
	r.set("op.p95_ms", quantile(all, 0.95))
	r.set("throughput_ops", float64(len(cells))/suite)
	r.set("op.drift_ratio", passTotal(results[len(results)-1])/passTotal(first))
	r.set("retained_heap_mb", retainedHeapMB())
	r.notef("op.p50_ms/op.p95_ms over %d cell runs; suite_s and geomean_ms over per-cell medians", len(all))
	return suite
}

// engineLayers sets the per-layer metrics of a traced engine measurement:
// work counters summed over one pass (they repeat exactly at one core),
// layer times summed over cells of each cell's median.
func (r *run) engineLayers(cells []cell, results [][]cellResult) {
	var work counters
	for i := range cells {
		work.add(results[len(results)-1][i].work)
	}
	r.setWork(work)
	medianMS := func(i int, pick func(cellResult) time.Duration) float64 {
		return median(cellTimes(results, i, pick)) * 1000
	}
	var lfp, gfp, cfp, pre, build, paths, newV, steps, models float64
	var solves []float64
	for i, c := range cells {
		solve := medianMS(i, func(c cellResult) time.Duration { return c.solve })
		solves = append(solves, solve)
		build += medianMS(i, func(c cellResult) time.Duration { return c.build })
		paths += medianMS(i, func(c cellResult) time.Duration { return c.paths })
		newV += medianMS(i, func(c cellResult) time.Duration { return c.newV })
		s := float64(results[len(results)-1][i].steps)
		switch {
		case c.task.Kind == bench.Precondition:
			pre += solve
		case c.method == core.LFP:
			lfp += solve
			steps += s
		case c.method == core.GFP:
			gfp += solve
			steps += s
		case c.method == core.CFP:
			cfp += solve
			models += s
		}
	}
	r.set("fixpoint.lfp_ms", lfp)
	r.set("fixpoint.gfp_ms", gfp)
	r.set("fixpoint.steps", steps)
	r.set("cbi.cfp_ms", cfp)
	r.set("cbi.models", models)
	r.set("precond.ms", pre)
	r.set("spec.build_ms", build)
	r.set("vc.paths_ms", paths)
	r.set("core.new_ms", newV)
	r.set("core.verify_ms", median(solves))
	r.set("store.verdict_hits", float64(work.storeHits))
	r.set("store.warm_lemmas", float64(work.warmLemmas))
	r.set("store.warm_cores", float64(work.warmCores))
	r.set("trace.spans", float64(len(r.tr.spans)))
}

// setWork sets the solver and engine counters.
func (r *run) setWork(w counters) {
	r.set("smt.queries", float64(w.queries))
	r.set("smt.cache_hits", float64(w.cacheHits))
	if w.queries+w.cacheHits > 0 {
		r.set("smt.hit_ratio", float64(w.cacheHits)/float64(w.queries+w.cacheHits))
	}
	r.set("smt.contexts", float64(w.contexts))
	r.set("smt.assumption_probes", float64(w.probes))
	r.set("smt.lemma_reuse", float64(w.lemmaReuse))
	r.set("lia.fm_scratch", float64(w.fmScratch))
	r.set("lia.fm_incremental", float64(w.fmIncremental))
	r.set("lia.fm_cube_hits", float64(w.fmCubeHits))
	r.set("lia.fm_cap_hits", float64(w.fmCapHits))
	r.set("optimal.core_pruned", float64(w.corePruned))
	r.set("optimal.core_evicted", float64(w.coreEvicted))
}

// storeCounters is the slice of store.Stats the report diffs.
type storeCounters struct{ appended, logBytes int64 }

func readStore(st *store.Store) storeCounters {
	ss := st.Stats()
	return storeCounters{appended: ss.Appended, logBytes: ss.LogBytes}
}
