package smt

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/lia"
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
	// ContextFor and NewContext return nil and every probe takes the
	// from-scratch path. Used by differential tests and A/B benchmarking;
	// verdicts are identical either way.
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

// NumFMScratch returns how many from-scratch Fourier–Motzkin eliminations ran
// (decideGround's general-LIA checker; one per theory check there).
func (s *Solver) NumFMScratch() int64 { return s.ctr[stats.FMScratch].Load() }

// NumFMIncremental returns how many eliminations persistent LinCheckers ran
// (checks that missed their conflict-cube store).
func (s *Solver) NumFMIncremental() int64 { return s.ctr[stats.FMIncremental].Load() }

// NumFMCubeHits returns how many LinChecker checks were answered from a
// persisted conflict cube, skipping the elimination entirely.
func (s *Solver) NumFMCubeHits() int64 { return s.ctr[stats.FMCubeHits].Load() }

// NumFMCapHits returns how many Fourier–Motzkin runs (from-scratch or
// incremental) hit the derived-constraint cap and returned a conservative
// Truncated "satisfiable".
func (s *Solver) NumFMCapHits() int64 { return s.ctr[stats.FMCapHits].Load() }

// ground grounds the negation of the cache-missing probe n: through c's
// grounding plan when the probe comes with its fill and c is a registered
// context, else as a whole formula (a fill the plan cannot express
// counts as a plan fallback). decided reports that the probe simplifies to a
// constant, whose value is then valid.
func (s *Solver) ground(n *logic.IFormula, c *Context, fill map[string]logic.Formula) (ground logic.Formula, decided, valid bool) {
	start := time.Now()
	planned := fill != nil && c != nil && c.key != nil
	ok := false
	if planned {
		ground, decided, valid, ok = c.groundPlan().groundFill(fill)
	}
	if !ok {
		ground, decided, valid = s.groundStatic(n)
	}
	s.ctr.Add(stats.GroundTime, int64(time.Since(start)))
	if ok {
		s.ctr.Add(stats.PlanProbes, 1)
	} else if planned {
		s.ctr.Add(stats.PlanFallbacks, 1)
	}
	if groundCheck != nil {
		var skel *logic.IFormula
		if ok {
			skel = c.key
		}
		groundCheck(s, n, skel, fill, ground, decided, valid)
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
// VC skeleton, creating it on first use. Returns nil when incremental solving
// is disabled; callers must then fall back to Valid. The registry keeps its
// contexts within ctxBudget SAT units, evicting the least recently used ones,
// so a long-running session keeps solving incrementally in bounded memory.
// Eviction is sound — a re-requested skeleton just gets a fresh context —
// and a caller still holding an evicted context may keep using it.
func (s *Solver) ContextFor(key *logic.IFormula) *Context {
	if s.opts.NoIncremental || key == nil {
		return nil
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
// per-skeleton registry (nil when incremental solving is disabled). Used for
// predicate-consistency probing, where the "skeleton" is the predicate
// vocabulary itself.
func (s *Solver) NewContext() *Context {
	if s.opts.NoIncremental {
		return nil
	}
	return s.newContext()
}

// Valid reports whether f is valid (true in every model). The answer true is
// always sound; false may also mean "not provable within the instantiation
// bounds", which client algorithms treat conservatively.
//
// The hot path is allocation-conscious: syntactically trivial formulas are
// decided before touching the interner or the cache, and a repeated query
// costs one hash walk of f plus a pointer-keyed map probe — the formula is
// never serialized and never re-simplified.
func (s *Solver) Valid(f logic.Formula) bool {
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
	ground, decided, v := s.ground(n, nil, nil)
	if !decided {
		v = !s.decideGround(ground)
	}
	s.stats.RecordQuery(time.Since(start))
	s.ctr.Add(stats.Queries, 1)
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

// groundCheck, when non-nil, sees every grounded probe: the solver, the
// probe's interned formula, the skeleton and fill of a probe grounded through
// a plan (nil otherwise), and the result. Tests install it to compare against
// the multi-pass pipeline and to replay plan probes.
var groundCheck func(s *Solver, n, skel *logic.IFormula, fill map[string]logic.Formula, ground logic.Formula, decided, valid bool)

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

// decideGround decides a ground (quantifier-free, store-possible) formula by
// online DPLL(T): the theory is checked inside the SAT search (theoryHook).
func (s *Solver) decideGround(f logic.Formula) bool {
	g := newGrounder()
	p := g.formulaProp(f)
	p = mkAnd(p, g.ackermann(s.opts.MaxAckermannPairs))
	switch p := p.(type) {
	case pConst:
		return p.val
	default:
	}

	solver := sat.New()
	defer func() { s.countSAT(solver.Stats.Decisions, solver.Stats.Propagations) }()
	enc := &encoder{s: solver, atomVar: map[int]int{}}
	root := enc.encode(p)
	if !solver.AddClause(root) {
		return false
	}

	// Iterate deterministically over atom indices, so conflict clauses (and
	// hence the search) are reproducible run to run. When every atom is a
	// difference constraint (the common case; §3 of the paper's evaluation
	// programs stay in this fragment), a preprocessed DiffChecker makes each
	// theory check allocation-free.
	atoms := make([]int, 0, len(enc.atomVar))
	for atom := range enc.atomVar {
		atoms = append(atoms, atom)
	}
	sort.Ints(atoms)
	h := &theoryHook{s: s, atomVars: make([]int, len(atoms)), lins: make([]lia.Lin, len(atoms)), assign: make([]bool, len(atoms))}
	for k, atom := range atoms {
		h.atomVars[k] = enc.atomVar[atom]
		h.lins[k] = g.lins[atom]
	}
	if d, ok := lia.NewDiffChecker(h.lins); ok {
		h.checker = d
	} else {
		h.checker = newScratchFM(h.lins, &s.ctr)
	}
	solver.Theory = h
	satisfiable, _ := h.decide(solver, nil)
	return satisfiable
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
