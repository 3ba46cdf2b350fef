// Package stats collects the runtime statistics reported in Figures 4–9 of
// the paper: SMT query latencies, sizes of optimal solutions, iterative
// candidate counts, and SAT formula sizes. A single Collector can be shared
// across the whole pipeline; all methods are safe for concurrent use.
package stats

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Collector accumulates statistics across a verification run. Every sample
// series is a fixed-bin histogram, so a long-lived collector (a serving
// session's) holds constant memory and Snapshot costs the same after a
// million samples as after one.
type Collector struct {
	mu sync.Mutex

	queries       DurHist // Figure 4: one sample per SMT validity query
	negSolSizes   IntHist // Figure 6: #predicates per OptimalNegativeSolutions solution
	optSolCounts  IntHist // Figure 7: #solutions per OptimalSolutions call
	candidates    IntHist // Figure 8: candidate-set size per iterative step
	satClauses    IntHist // Figure 9: #clauses per CFP SAT formula
	satVars       IntHist // Figure 9 companion: #variables per CFP SAT formula
	coreSizes     IntHist // #predicates per unsat core extracted by consistency probes
	coreEvictions int     // cores evicted from the engine-global store to admit newer ones
	fmCapHits     int     // Fourier–Motzkin runs that hit the derived-constraint cap
	storeHits     int     // lookups answered from the on-disk knowledge store
	storeMisses   int     // knowledge-store lookups that found nothing

	groundPlans   int           // grounding plans compiled (one per context group)
	planProbes    int           // probes grounded from their group's plan
	planFallbacks int           // probes whose fill the plan could not express
	groundTime    time.Duration // time spent grounding probes, on every path

	satDecisions    int64 // SAT branch decisions of the SMT layer's searches
	satPropagations int64 // literals those searches assigned by unit propagation
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// DurHist is a fixed-bin histogram of durations over the paper's Figure 4
// bins (QueryBucketLabels), with the samples' count, sum and max.
type DurHist struct {
	Buckets [5]int
	Count   int
	Sum     time.Duration
	Max     time.Duration
}

// queryBucketMax are the inclusive upper bounds of DurHist's first four
// buckets; the fifth is open.
var queryBucketMax = [4]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second}

// Record adds one sample.
func (h *DurHist) Record(d time.Duration) {
	b := len(queryBucketMax)
	for i, m := range queryBucketMax {
		if d <= m {
			b = i
			break
		}
	}
	h.Buckets[b]++
	h.Count++
	h.Sum += d
	h.Max = max(h.Max, d)
}

func (h *DurHist) merge(o *DurHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	h.Max = max(h.Max, o.Max)
}

// histExact is how many small values an IntHist bins one per value. Every
// cut point Figures 6–8 print and every median Figures 8–9 print falls well
// inside it (the paper bounds ψ_Prog below 500 clauses), so the figures
// derived from the histogram are exactly those of the raw samples.
const histExact = 512

// IntHist is a fixed-bin histogram of non-negative integer samples: one bin
// per value below histExact and one overflow bin for the rest, with the
// samples' count, sum and max. Negative samples are binned as 0.
type IntHist struct {
	bins  [histExact + 1]int
	Count int
	Sum   int
	Max   int
}

// Record adds one sample.
func (h *IntHist) Record(v int) {
	h.bins[min(max(v, 0), histExact)]++
	h.Count++
	h.Sum += v
	h.Max = max(h.Max, v)
}

func (h *IntHist) merge(o *IntHist) {
	for i := range h.bins {
		h.bins[i] += o.bins[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	h.Max = max(h.Max, o.Max)
}

// Median returns the upper median of the samples (0 when empty); a median in
// the overflow bin is reported as histExact.
func (h *IntHist) Median() int {
	if h.Count == 0 {
		return 0
	}
	seen := 0
	for v, n := range h.bins {
		if seen += n; seen > h.Count/2 {
			return v
		}
	}
	return histExact
}

// Cuts buckets the samples by the given ascending cut points and returns
// label→count: "<=c" for the samples in (previous cut, c], and ">last" for
// the rest. Cut points must lie below histExact.
func (h *IntHist) Cuts(cuts []int) map[string]int {
	out := map[string]int{}
	v := 0
	for _, c := range cuts {
		for ; v <= c; v++ {
			if h.bins[v] > 0 {
				out[fmt.Sprintf("<=%d", c)] += h.bins[v]
			}
		}
	}
	for ; v < len(h.bins); v++ {
		if h.bins[v] > 0 {
			out[fmt.Sprintf(">%d", cuts[len(cuts)-1])] += h.bins[v]
		}
	}
	return out
}

// RecordQuery records the latency of one SMT validity query (Figure 4).
func (c *Collector) RecordQuery(d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.queries.Record(d)
	c.mu.Unlock()
}

// RecordNegSolutionSize records the number of predicates in one solution
// returned by OptimalNegativeSolutions (Figure 6).
func (c *Collector) RecordNegSolutionSize(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.negSolSizes.Record(n)
	c.mu.Unlock()
}

// RecordOptSolutionCount records the number of optimal solutions returned by
// one OptimalSolutions call (Figure 7).
func (c *Collector) RecordOptSolutionCount(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.optSolCounts.Record(n)
	c.mu.Unlock()
}

// RecordCandidates records the size of the candidate set at one step of an
// iterative fixed-point run (Figure 8).
func (c *Collector) RecordCandidates(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.candidates.Record(n)
	c.mu.Unlock()
}

// RecordSATSize records the clause and variable counts of one ψ_Prog SAT
// instance built by the constraint-based algorithm (Figure 9).
func (c *Collector) RecordSATSize(clauses, vars int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.satClauses.Record(clauses)
	c.satVars.Record(vars)
	c.mu.Unlock()
}

// RecordCoreSize records the number of predicates in one unsat core
// extracted from a failed consistency probe.
func (c *Collector) RecordCoreSize(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.coreSizes.Record(n)
	c.mu.Unlock()
}

// RecordCoreEviction records that one stored core was evicted from the
// engine-global core store to make room for a newer one.
func (c *Collector) RecordCoreEviction() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.coreEvictions++
	c.mu.Unlock()
}

// CoreEvictions returns how many core-store evictions were recorded.
func (c *Collector) CoreEvictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coreEvictions
}

// RecordFMCapHit records that one Fourier–Motzkin elimination hit the
// derived-constraint cap and returned a conservative (Truncated) answer
// instead of a decision.
func (c *Collector) RecordFMCapHit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.fmCapHits++
	c.mu.Unlock()
}

// FMCapHits returns how many Fourier–Motzkin cap hits were recorded.
func (c *Collector) FMCapHits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fmCapHits
}

// RecordStoreLookup records one lookup against the on-disk knowledge store
// (a verdict, consistency, lemma-seed, or outcome probe) and whether it hit.
func (c *Collector) RecordStoreLookup(hit bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if hit {
		c.storeHits++
	} else {
		c.storeMisses++
	}
	c.mu.Unlock()
}

// StoreLookups returns the knowledge-store hit/miss counts recorded so far.
func (c *Collector) StoreLookups() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeHits, c.storeMisses
}

// RecordGroundPlan records that one context group compiled its grounding
// plan.
func (c *Collector) RecordGroundPlan() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.groundPlans++
	c.mu.Unlock()
}

// RecordGround records one grounded probe and the time grounding took:
// through its group's plan, as a fallback from a plan that could not express
// it, or (neither) as a whole formula.
func (c *Collector) RecordGround(d time.Duration, plan, fallback bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.groundTime += d
	if plan {
		c.planProbes++
	}
	if fallback {
		c.planFallbacks++
	}
	c.mu.Unlock()
}

// RecordSATWork records SAT search work of the SMT layer: branch decisions
// and literals assigned by unit propagation.
func (c *Collector) RecordSATWork(decisions, propagations int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.satDecisions += decisions
	c.satPropagations += propagations
	c.mu.Unlock()
}

// Merge adds everything recorded in o into c. Safe for concurrent use on
// c; o must not be concurrently recorded into while it is being merged.
// It lets short-lived collectors (one per request or benchmark cell) fold
// into a long-lived aggregate.
func (c *Collector) Merge(o *Collector) {
	if c == nil || o == nil {
		return
	}
	o.mu.Lock()
	oc := &Collector{
		queries: o.queries, negSolSizes: o.negSolSizes, optSolCounts: o.optSolCounts,
		candidates: o.candidates, satClauses: o.satClauses, satVars: o.satVars,
		coreSizes: o.coreSizes, coreEvictions: o.coreEvictions, fmCapHits: o.fmCapHits,
		storeHits: o.storeHits, storeMisses: o.storeMisses,
		groundPlans: o.groundPlans, planProbes: o.planProbes, planFallbacks: o.planFallbacks,
		groundTime: o.groundTime, satDecisions: o.satDecisions, satPropagations: o.satPropagations,
	}
	o.mu.Unlock()
	c.mu.Lock()
	c.queries.merge(&oc.queries)
	c.negSolSizes.merge(&oc.negSolSizes)
	c.optSolCounts.merge(&oc.optSolCounts)
	c.candidates.merge(&oc.candidates)
	c.satClauses.merge(&oc.satClauses)
	c.satVars.merge(&oc.satVars)
	c.coreSizes.merge(&oc.coreSizes)
	c.coreEvictions += oc.coreEvictions
	c.fmCapHits += oc.fmCapHits
	c.storeHits += oc.storeHits
	c.storeMisses += oc.storeMisses
	c.groundPlans += oc.groundPlans
	c.planProbes += oc.planProbes
	c.planFallbacks += oc.planFallbacks
	c.groundTime += oc.groundTime
	c.satDecisions += oc.satDecisions
	c.satPropagations += oc.satPropagations
	c.mu.Unlock()
}

// Snapshot is a fixed-size, mergeable summary of a Collector: every field is
// a count or a summed time, so snapshots can be added (fleet aggregation) and subtracted
// (request-scoped deltas between two points of a long-lived collector). The
// latency histogram uses the Figure 4 buckets in QueryBucketLabels order.
type Snapshot struct {
	Queries        int    `json:"smt_queries"`
	QueryBuckets   [5]int `json:"smt_query_latency_buckets"`
	NegSolutions   int    `json:"neg_solutions"`
	OptCalls       int    `json:"optimal_calls"`
	CandidateSteps int    `json:"candidate_steps"`
	SATFormulas    int    `json:"sat_formulas"`
	UnsatCores     int    `json:"unsat_cores"`
	CoreEvictions  int    `json:"core_evictions"`
	FMCapHits      int    `json:"fm_cap_hits"`
	StoreHits      int    `json:"store_hits"`
	StoreMisses    int    `json:"store_misses"`
	// Grounding: plans compiled, probes grounded from a plan, probes a plan
	// could not express, and milliseconds spent grounding on every path.
	GroundPlans   int     `json:"ground_plans"`
	PlanProbes    int     `json:"plan_probes"`
	PlanFallbacks int     `json:"plan_fallbacks"`
	GroundMS      float64 `json:"ground_ms"`
	// SAT search work of the SMT layer: branch decisions and literals
	// assigned by unit propagation.
	SATDecisions    int64 `json:"sat_decisions"`
	SATPropagations int64 `json:"sat_propagations"`
}

// QueryBucketLabels labels DurHist.Buckets and Snapshot.QueryBuckets.
var QueryBucketLabels = [5]string{"<=1ms", "<=10ms", "<=100ms", "<=1s", ">1s"}

// Snapshot summarizes everything recorded so far.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		Queries:         c.queries.Count,
		QueryBuckets:    c.queries.Buckets,
		NegSolutions:    c.negSolSizes.Count,
		OptCalls:        c.optSolCounts.Count,
		CandidateSteps:  c.candidates.Count,
		SATFormulas:     c.satClauses.Count,
		UnsatCores:      c.coreSizes.Count,
		CoreEvictions:   c.coreEvictions,
		FMCapHits:       c.fmCapHits,
		StoreHits:       c.storeHits,
		StoreMisses:     c.storeMisses,
		GroundPlans:     c.groundPlans,
		PlanProbes:      c.planProbes,
		PlanFallbacks:   c.planFallbacks,
		GroundMS:        float64(c.groundTime) / float64(time.Millisecond),
		SATDecisions:    c.satDecisions,
		SATPropagations: c.satPropagations,
	}
}

// Add returns the field-wise sum of two snapshots.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.Queries += o.Queries
	for i := range s.QueryBuckets {
		s.QueryBuckets[i] += o.QueryBuckets[i]
	}
	s.NegSolutions += o.NegSolutions
	s.OptCalls += o.OptCalls
	s.CandidateSteps += o.CandidateSteps
	s.SATFormulas += o.SATFormulas
	s.UnsatCores += o.UnsatCores
	s.CoreEvictions += o.CoreEvictions
	s.FMCapHits += o.FMCapHits
	s.StoreHits += o.StoreHits
	s.StoreMisses += o.StoreMisses
	s.GroundPlans += o.GroundPlans
	s.PlanProbes += o.PlanProbes
	s.PlanFallbacks += o.PlanFallbacks
	s.GroundMS += o.GroundMS
	s.SATDecisions += o.SATDecisions
	s.SATPropagations += o.SATPropagations
	return s
}

// Sub returns the field-wise difference s − o: the activity recorded between
// the moment o was taken and the moment s was taken on the same collector.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	s.Queries -= o.Queries
	for i := range s.QueryBuckets {
		s.QueryBuckets[i] -= o.QueryBuckets[i]
	}
	s.NegSolutions -= o.NegSolutions
	s.OptCalls -= o.OptCalls
	s.CandidateSteps -= o.CandidateSteps
	s.SATFormulas -= o.SATFormulas
	s.UnsatCores -= o.UnsatCores
	s.CoreEvictions -= o.CoreEvictions
	s.FMCapHits -= o.FMCapHits
	s.StoreHits -= o.StoreHits
	s.StoreMisses -= o.StoreMisses
	s.GroundPlans -= o.GroundPlans
	s.PlanProbes -= o.PlanProbes
	s.PlanFallbacks -= o.PlanFallbacks
	s.GroundMS -= o.GroundMS
	s.SATDecisions -= o.SATDecisions
	s.SATPropagations -= o.SATPropagations
	return s
}

// CoreSizes returns the unsat-core size histogram.
func (c *Collector) CoreSizes() IntHist {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coreSizes
}

// Queries returns the SMT query latency histogram (Figure 4).
func (c *Collector) Queries() DurHist {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queries
}

// NegSolutionSizes returns the per-solution predicate-count histogram.
func (c *Collector) NegSolutionSizes() IntHist {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.negSolSizes
}

// OptSolutionCounts returns the per-call solution-count histogram.
func (c *Collector) OptSolutionCounts() IntHist {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.optSolCounts
}

// Candidates returns the candidate-set size histogram.
func (c *Collector) Candidates() IntHist {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.candidates
}

// SATSizes returns the clause-count and variable-count histograms.
func (c *Collector) SATSizes() (clauses, vars IntHist) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.satClauses, c.satVars
}

// WriteSummary prints a human-readable digest of everything collected.
func (c *Collector) WriteSummary(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "SMT queries: %d\n", c.queries.Count)
	for i, n := range c.queries.Buckets {
		fmt.Fprintf(w, "  %-8s %d\n", QueryBucketLabels[i], n)
	}
	fmt.Fprintf(w, "OptimalNegativeSolutions solution sizes: median=%d max=%d over %d solutions\n",
		c.negSolSizes.Median(), c.negSolSizes.Max, c.negSolSizes.Count)
	fmt.Fprintf(w, "OptimalSolutions solution counts: median=%d max=%d over %d calls\n",
		c.optSolCounts.Median(), c.optSolCounts.Max, c.optSolCounts.Count)
	fmt.Fprintf(w, "Iterative candidate sizes: median=%d max=%d over %d steps\n",
		c.candidates.Median(), c.candidates.Max, c.candidates.Count)
	fmt.Fprintf(w, "CFP SAT sizes: median clauses=%d max clauses=%d over %d formulas\n",
		c.satClauses.Median(), c.satClauses.Max, c.satClauses.Count)
	fmt.Fprintf(w, "Unsat core sizes: median=%d max=%d over %d cores (%d evicted)\n",
		c.coreSizes.Median(), c.coreSizes.Max, c.coreSizes.Count, c.coreEvictions)
	fmt.Fprintf(w, "Fourier-Motzkin cap hits (conservative answers): %d\n", c.fmCapHits)
	fmt.Fprintf(w, "Grounding: %.1f ms; %d plans compiled, %d probes grounded by a plan, %d plan fallbacks\n",
		float64(c.groundTime)/float64(time.Millisecond), c.groundPlans, c.planProbes, c.planFallbacks)
	fmt.Fprintf(w, "SAT search: %d decisions, %d propagations\n", c.satDecisions, c.satPropagations)
}
