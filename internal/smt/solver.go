package smt

import (
	"fmt"
	"time"

	"repro/internal/logic"
	"repro/internal/memo"
	"repro/internal/sat"
	"repro/internal/stats"
	"repro/internal/store"
)

// Options configures the solver's quantifier instantiation and resource
// bounds. The zero value is usable; Normalize fills in defaults.
type Options struct {
	// InstRounds is how many times the instantiation set is re-derived from
	// the previous round's ground formula, so skolem witnesses produced in
	// round k become instantiation candidates in round k+1. Default 3.
	InstRounds int
	// MaxInstances caps the number of tuples one universal is expanded to.
	// Default 4096.
	MaxInstances int
	// MaxAckermannPairs caps functional-consistency constraints. Default 20000.
	MaxAckermannPairs int
	// MaxTheoryIterations caps the theory conflicts one probe's DPLL(T)
	// search may resolve; a probe that finds more gives up with a
	// conservative "satisfiable" answer (Valid reports false). Default
	// 100000.
	MaxTheoryIterations int
	// Stop, when non-nil, is polled by every theory check inside the DPLL(T)
	// search; returning true abandons the query with a conservative
	// "satisfiable" answer (Valid reports false), releasing the CPU promptly
	// after a timeout.
	Stop func() bool
	// NoIncremental disables persistent assumption-based contexts:
	// ContextFor and NewContext hand out one dormant context, and every
	// probe is decided from scratch on a one-shot context. It is the
	// differential reference of tests and A/B benchmarks; verdicts are
	// identical either way.
	NoIncremental bool
	// Store, when non-nil, is the on-disk knowledge base: cache-missing
	// validity verdicts are answered from it when present (and appended to
	// it when decided without a fired Stop), and per-skeleton contexts are
	// seeded with its persisted theory lemmas. The store must have been
	// opened with Params = this option set's StoreParams(), which is what
	// makes replaying last lifetime's verdicts sound.
	Store *store.Store
}

// StoreParams is the fingerprint of every option that can change a verdict.
// A knowledge store written under different bounds is sidelined at Open:
// persisted verdicts are only as deterministic as the bounds they were
// computed under. Stop is excluded — it changes completion, never a settled
// verdict (Stop-fired conservative answers are never appended).
func (o Options) StoreParams() string {
	o = o.Normalize()
	return fmt.Sprintf("smt:v1 inst=%d max_inst=%d ack=%d theory_iters=%d incremental=%v",
		o.InstRounds, o.MaxInstances, o.MaxAckermannPairs, o.MaxTheoryIterations, !o.NoIncremental)
}

// Normalize returns o with defaults applied.
func (o Options) Normalize() Options {
	if o.InstRounds == 0 {
		o.InstRounds = 3
	}
	if o.MaxInstances == 0 {
		o.MaxInstances = 4096
	}
	if o.MaxAckermannPairs == 0 {
		o.MaxAckermannPairs = 20000
	}
	if o.MaxTheoryIterations == 0 {
		o.MaxTheoryIterations = 100000
	}
	return o
}

// Solver checks validity of quantified formulas over integers + arrays +
// uninterpreted functions. It memoizes results and reports per-query
// latencies to an optional stats collector. Safe for concurrent use: the
// memo table is sharded with singleflight deduplication (two goroutines
// never decide the same VC twice) and the counters are atomic.
type Solver struct {
	opts  Options
	cache *validityCache
	stats *stats.Collector

	// trigMemo caches triggersOf per interned universal quantifier; the
	// value maps are read-only after construction, so sharing across
	// goroutines is safe. Bounded (trigMemoCap), like all retained state.
	trigMemo *memo.Table[*logic.IFormula, map[string][]trigger]

	// ctr counts every Engine row of the stats registry for this solver and
	// the optimal.Engine built on it: one verifier session's counters.
	ctr stats.Counters

	reg ctxRegistry // one persistent Context per compiled VC skeleton, under ctxBudget

	// dormant is what ContextFor and NewContext hand out under
	// NoIncremental: a context that never probes, so each of its queries
	// falls back to a one-shot context.
	dormant *Context
}

// NewSolver returns a solver with the given options, its retained state
// under the fixed ctxBudget and cacheBudget shares.
func NewSolver(opts Options) *Solver {
	s := &Solver{
		opts:     opts.Normalize(),
		trigMemo: memo.New[*logic.IFormula, map[string][]trigger](trigMemoCap),
	}
	s.cache = newValidityCache(cacheBudget, &s.ctr)
	s.reg.budget, s.reg.ctr = ctxBudget, &s.ctr
	if s.opts.NoIncremental {
		s.dormant = &Context{s: s, dead: true}
	}
	return s
}

// SetStats attaches a collector that receives per-query latencies (Figure 4).
// It must be called before the solver is shared across goroutines.
func (s *Solver) SetStats(c *stats.Collector) { s.stats = c }

// Counters returns the counters of this solver and of the optimal.Engine
// built on it, indexed by the stats registry's Engine rows.
func (s *Solver) Counters() *stats.Counters { return &s.ctr }

// NumQueries returns how many validity checks were actually decided (cache
// misses). Every Valid call on a non-trivial formula increments exactly one
// of NumQueries and NumCacheHits.
func (s *Solver) NumQueries() int64 { return s.ctr[stats.Queries].Load() }

// NumCacheHits returns how many validity checks were answered from the memo
// table, including singleflight waiters that rode on a concurrent decision.
func (s *Solver) NumCacheHits() int64 { return s.ctr[stats.CacheHits].Load() }

// NumContexts returns how many incremental contexts were created.
func (s *Solver) NumContexts() int64 { return s.ctr[stats.Contexts].Load() }

// ContextBudget returns the SAT units the registered contexts may hold
// (the fixed ctxBudget share of the solver's retained-state budget).
func (s *Solver) ContextBudget() int64 { return s.reg.budget }

// NumAssumptionProbes returns how many probes were decided incrementally
// (under assumptions in a persistent context) instead of from scratch. Every
// cache-missing Valid call through a context increments exactly one of
// NumQueries and NumAssumptionProbes.
func (s *Solver) NumAssumptionProbes() int64 { return s.ctr[stats.AssumptionProbes].Load() }

// NumLemmaReuseHits returns how many incremental probes started against a
// SAT instance that already held learnt clauses or persisted theory lemmas
// from earlier probes.
func (s *Solver) NumLemmaReuseHits() int64 { return s.ctr[stats.LemmaReuse].Load() }

// NumStoreVerdictHits returns how many cache-missing validity checks were
// answered from the on-disk knowledge store instead of being decided.
func (s *Solver) NumStoreVerdictHits() int64 { return s.ctr[stats.StoreVerdictHits].Load() }

// NumWarmLemmas returns how many persisted theory lemmas were seeded into
// freshly created contexts from the knowledge store.
func (s *Solver) NumWarmLemmas() int64 { return s.ctr[stats.StoreWarmLemmas].Load() }

// NumFMScratch returns how many Fourier–Motzkin eliminations ran outside
// persistent contexts: in the LinCheckers of one-shot contexts, which decide
// from-scratch queries.
func (s *Solver) NumFMScratch() int64 { return s.ctr[stats.FMScratch].Load() }

// NumFMIncremental returns how many eliminations the LinCheckers of
// persistent contexts ran.
func (s *Solver) NumFMIncremental() int64 { return s.ctr[stats.FMIncremental].Load() }

// NumFMCubeHits is always 0. LinChecker no longer keeps conflict cubes: every
// theory lemma is a permanent clause of the SAT instance the checker serves,
// so no later full assignment can agree with an earlier refutation.
func (s *Solver) NumFMCubeHits() int64 { return 0 }

// NumFMCapHits returns how many Fourier–Motzkin runs (from-scratch or
// incremental) hit the derived-constraint cap and returned a conservative
// Truncated "satisfiable".
func (s *Solver) NumFMCapHits() int64 { return s.ctr[stats.FMCapHits].Load() }

// ground grounds the negation of the cache-missing probe n: through c's
// grounding plan when holes (the probe's fill, per hole of the plan) is
// non-nil, else as a whole formula (planned marks a fill the plan cannot
// express, counted as a plan fallback). decided reports that the probe
// simplifies to a constant, whose value is then valid.
func (s *Solver) ground(n *logic.IFormula, c *Context, holes [][]*logic.IFormula, planned bool) (ground logic.Formula, decided, valid bool) {
	start := time.Now()
	if holes != nil {
		ground, decided, valid = c.groundPlan().groundFill(holes)
		s.ctr.Add(stats.PlanProbes, 1)
	} else {
		ground, decided, valid = s.groundStatic(n)
		if planned {
			s.ctr.Add(stats.PlanFallbacks, 1)
		}
	}
	s.ctr.Add(stats.GroundTime, int64(time.Since(start)))
	if groundCheck != nil {
		var skel *logic.IFormula
		if holes != nil {
			skel = c.key
		}
		groundCheck(s, n, skel, holes, ground, decided, valid)
	}
	return ground, decided, valid
}

// Knowledge returns the attached on-disk store, or nil.
func (s *Solver) Knowledge() *store.Store { return s.opts.Store }

// countSAT folds the SAT work of one sat.Solver into the solver's counters.
func (s *Solver) countSAT(decisions, propagations int64) {
	s.ctr.Add(stats.SATDecisions, decisions)
	s.ctr.Add(stats.SATPropagations, propagations)
}

// Incremental reports whether persistent assumption-based contexts are
// enabled (Options.NoIncremental unset).
func (s *Solver) Incremental() bool { return !s.opts.NoIncremental }

// ContextFor returns the persistent incremental context keyed by a compiled
// VC skeleton (non-nil), creating it on first use; every probe of the
// skeleton goes through its ValidFill. When incremental solving is disabled
// it returns a dormant context instead, whose probes are decided from
// scratch exactly as Valid decides them. The registry keeps its contexts
// within ctxBudget SAT units, evicting the least recently used ones, so a
// long-running session keeps solving incrementally in bounded memory.
// Eviction is sound — a re-requested skeleton just gets a fresh context —
// and a caller still holding an evicted context may keep using it.
func (s *Solver) ContextFor(key *logic.IFormula) *Context {
	if s.dormant != nil {
		return s.dormant
	}
	if c := s.reg.get(key); c != nil {
		return c
	}
	var skel string
	if s.opts.Store != nil {
		// The skeleton's portable identity keys its lemmas on disk; a
		// skeleton the store has never seen simply loads nothing. Hashed
		// before taking the registry lock, so lookups of other skeletons
		// do not wait behind it.
		skel = store.FormulaKey(key.Formula())
	}
	return s.reg.getOrAdd(key, func() *Context { return s.newContextKeyed(skel) })
}

// NewContext returns a standalone incremental context outside the
// per-skeleton registry (the dormant one when incremental solving is
// disabled, whose Consistent always asks for the fallback). Used for
// predicate-consistency probing, where the "skeleton" is the predicate
// vocabulary itself.
func (s *Solver) NewContext() *Context {
	if s.dormant != nil {
		return s.dormant
	}
	return s.newContext()
}

// Valid reports whether f is valid (true in every model). The answer true is
// always sound; false may also mean "not provable within the instantiation
// bounds", which client algorithms treat conservatively. A cache-missing f
// is decided from scratch.
//
// The hot path is allocation-conscious: syntactically trivial formulas are
// decided before touching the interner or the cache, and a repeated query
// costs one hash walk of f plus a pointer-keyed map probe — the formula is
// never serialized and never re-simplified.
func (s *Solver) Valid(f logic.Formula) bool { return s.valid(f, nil, nil) }

// probeFill is what a context probe was built from, in the form its caller
// has it: a fill map (ValidFill) or one list of interned predicates per
// unknown (ValidSel).
type probeFill struct {
	m     map[string]logic.Formula
	preds [][]*logic.IFormula
}

// valid is Valid, Context.ValidFill and ValidSel: the memo
// table, then the knowledge store, then a decision (decideProbe).
func (s *Solver) valid(f logic.Formula, c *Context, pf *probeFill) bool {
	if v, ok := logic.TrivialVerdict(f); ok {
		return v
	}
	n := logic.Intern(f)
	e, hit := s.cache.lookupOrClaim(n)
	if hit {
		<-e.done
		s.ctr.Add(stats.CacheHits, 1)
		return e.val
	}
	var skey string
	if s.opts.Store != nil {
		skey = store.FormulaKey(n.Formula())
		if v, ok := s.opts.Store.Verdict(skey); ok {
			s.ctr.Add(stats.StoreVerdictHits, 1)
			e.settle(v)
			return v
		}
		s.ctr.Add(stats.StoreMisses, 1)
	}
	start := time.Now()
	v := s.decideProbe(n, c, pf)
	s.stats.RecordQuery(time.Since(start))
	e.settle(v)
	if s.opts.Stop != nil && s.opts.Stop() {
		// The run was abandoned mid-query; the conservative answer must
		// not be memoized as a real verdict. Waiters already holding the
		// entry still get the (conservative) value.
		s.cache.forget(n, e)
	} else if s.opts.Store != nil {
		// Settled without a fired Stop: a real verdict, safe to persist.
		s.opts.Store.AppendVerdict(skey, v)
	}
	return v
}

// decideProbe decides the cache-missing probe n: over c's compiled skeleton
// when c is registered and the probe comes with its fill (pf) in a form the
// compiled skeleton expresses; else grounded — through c's plan when there
// is a fill, whole otherwise — and decided as a probe on c when c is
// non-nil and live, from scratch otherwise.
func (s *Solver) decideProbe(n *logic.IFormula, c *Context, pf *probeFill) bool {
	planned := pf != nil && c != nil && c.key != nil
	var holes [][]*logic.IFormula
	if planned {
		holes = c.groundPlan().holesOf(pf)
	}
	if holes != nil {
		if v, decided, ok := c.decideCompiled(holes); ok {
			if decided {
				s.ctr.Add(stats.Queries, 1)
			} else {
				s.ctr.Add(stats.AssumptionProbes, 1)
			}
			if compiledCheck != nil {
				compiledCheck(s, n, c.key, holes, v)
			}
			return v
		}
	}
	ground, decided, v := s.ground(n, c, holes, planned)
	if decided {
		s.ctr.Add(stats.Queries, 1)
		return v
	}
	return !s.decide(ground, c)
}

// compiledCheck, when non-nil, sees every probe decided over a compiled
// skeleton: the solver, the probe's interned formula, its skeleton and
// per-hole predicates, and its verdict. Tests install it to re-decide the
// probe through the multi-pass oracle and to replay it through the plan.
var compiledCheck func(s *Solver, n, skel *logic.IFormula, holes [][]*logic.IFormula, valid bool)

// decide decides satisfiability of a ground formula: as a probe on c when c
// is non-nil and live (an assumption probe), else from scratch (a query).
func (s *Solver) decide(ground logic.Formula, c *Context) bool {
	if c != nil {
		if satisfiable, ok := c.decide(ground); ok {
			s.ctr.Add(stats.AssumptionProbes, 1)
			return satisfiable
		}
	}
	s.ctr.Add(stats.Queries, 1)
	return s.decideOnce(ground)
}

// decideOnce decides satisfiability of a ground formula from scratch, on a
// one-shot context: the online DPLL(T) search every context runs, over a
// SAT instance, grounder and theory checker that serve this formula alone.
// A one-shot context never goes dormant; were it to, the answer would be the
// conservative "satisfiable".
func (s *Solver) decideOnce(ground logic.Formula) bool {
	c := &Context{s: s, oneShot: true}
	c.reset()
	satisfiable, ok := c.decide(ground)
	return satisfiable || !ok
}

// groundCheck, when non-nil, sees every grounded probe: the solver, the
// probe's interned formula, the skeleton and per-hole predicates of a probe
// grounded through a plan (nil otherwise), and the result. Tests install it
// to compare against the multi-pass pipeline and to replay plan probes.
var groundCheck func(s *Solver, n, skel *logic.IFormula, holes [][]*logic.IFormula, ground logic.Formula, decided, valid bool)

// triggers returns triggersOf(q.Body, q.Vars), memoized per interned
// quantifier across rounds and queries.
func (s *Solver) triggers(q logic.Forall) map[string][]trigger {
	n := logic.Intern(q)
	if v, ok := s.trigMemo.Load(n); ok {
		return v
	}
	v, _ := s.trigMemo.LoadOrStore(n, triggersOf(q.Body, q.Vars))
	return v
}

// encoder performs one-sided (NNF/plaisted-greenbaum) Tseitin encoding of a
// prop into the SAT solver.
type encoder struct {
	s        *sat.Solver
	atomVar  map[int]int // theory atom index → SAT variable
	trueVar  int
	haveTrue bool

	// gates, when non-nil, records every gate the encoder creates as a
	// switched-off probe gate with its gate children (a Context's cones).
	gates *gateGraph
}

func (e *encoder) constTrue() sat.Lit {
	if !e.haveTrue {
		e.trueVar = e.s.NewVar()
		e.s.AddClause(sat.MkLit(e.trueVar, false))
		e.haveTrue = true
	}
	return sat.MkLit(e.trueVar, false)
}

func (e *encoder) encode(p prop) sat.Lit {
	switch p := p.(type) {
	case pConst:
		if p.val {
			return e.constTrue()
		}
		return e.constTrue().Not()
	case pLit:
		v, ok := e.atomVar[p.atom]
		if !ok {
			v = e.s.NewVar()
			e.atomVar[p.atom] = v
		}
		return sat.MkLit(v, p.neg)
	case pAnd:
		gv := e.s.NewVar()
		gl := sat.MkLit(gv, false)
		var kids []sat.Lit
		for _, child := range p.ps {
			cl := e.encode(child)
			e.s.AddClause(gl.Not(), cl)
			if e.gates != nil {
				kids = append(kids, cl)
			}
		}
		if e.gates != nil {
			e.gates.add(e.s, gv, kids)
		}
		return gl
	case pOr:
		gv := e.s.NewVar()
		gl := sat.MkLit(gv, false)
		clause := make([]sat.Lit, 0, len(p.ps)+1)
		clause = append(clause, gl.Not())
		for _, child := range p.ps {
			clause = append(clause, e.encode(child))
		}
		if e.gates != nil {
			e.gates.add(e.s, gv, clause[1:])
		}
		e.s.AddClause(clause...)
		return gl
	}
	panic("smt: unknown prop")
}
