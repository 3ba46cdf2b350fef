package smt

import (
	"fmt"
	"sort"
	"sync/atomic"
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
	// MaxTheoryIterations caps DPLL(T) model-repair rounds. Default 100000.
	MaxTheoryIterations int
	// Stop, when non-nil, is polled inside the DPLL(T) loop; returning
	// true abandons the query with a conservative "satisfiable" answer
	// (Valid reports false), releasing the CPU promptly after a timeout.
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

	queries   atomic.Int64 // validity checks actually decided (cache misses)
	cacheHits atomic.Int64 // validity checks answered from the memo table

	// Incremental-context registry (one persistent Context per compiled VC
	// skeleton, under the ctxBudget share) and its counters.
	reg          ctxRegistry
	ctxCreated   atomic.Int64 // contexts created (registry + standalone + lanes)
	ctxProbes    atomic.Int64 // probes decided incrementally under assumptions
	ctxDormant   atomic.Int64 // contexts gone dormant (Ackermann budget exhausted)
	lemmaReuse   atomic.Int64 // probes that reused learnt clauses or theory lemmas
	lemmasShared atomic.Int64 // theory lemmas imported from a sibling lane's exchange
	storeHits    atomic.Int64 // cache-missing verdicts answered from the knowledge store
	lemmasWarm   atomic.Int64 // theory lemmas seeded into context groups from the store

	// Fourier–Motzkin activity: fmScratch counts from-scratch eliminations
	// (decideGround's general-LIA fallback, one lia.Check per theory
	// iteration); fmCounters aggregates the persistent LinCheckers of every
	// context lane (incremental runs, conflict-cube hits, cap hits). The
	// incremental-vs-NoIncremental BENCH_7 gate compares fmScratch.
	fmScratch  atomic.Int64
	fmCounters lia.Counters
}

// NewSolver returns a solver with the given options, its retained state
// under the fixed ctxBudget and cacheBudget shares.
func NewSolver(opts Options) *Solver {
	s := &Solver{
		opts:     opts.Normalize(),
		cache:    newValidityCache(cacheBudget),
		trigMemo: memo.New[*logic.IFormula, map[string][]trigger](trigMemoCap),
	}
	s.reg.budget = ctxBudget
	return s
}

// SetStats attaches a collector that receives per-query latencies (Figure 4).
// It must be called before the solver is shared across goroutines.
func (s *Solver) SetStats(c *stats.Collector) { s.stats = c }

// NumQueries returns how many validity checks were actually decided (cache
// misses). Every Valid call on a non-trivial formula increments exactly one
// of NumQueries and NumCacheHits.
func (s *Solver) NumQueries() int64 { return s.queries.Load() }

// NumCacheHits returns how many validity checks were answered from the memo
// table, including singleflight waiters that rode on a concurrent decision.
func (s *Solver) NumCacheHits() int64 { return s.cacheHits.Load() }

// NumContexts returns how many incremental contexts were created.
func (s *Solver) NumContexts() int64 { return s.ctxCreated.Load() }

// NumContextsEvicted returns how many registered context groups were evicted
// (least recently used first) to keep the registry within its budget.
func (s *Solver) NumContextsEvicted() int64 { return s.reg.evicted.Load() }

// ContextBudget returns the SAT units the registered context groups may hold
// (the fixed ctxBudget share of the solver's retained-state budget).
func (s *Solver) ContextBudget() int64 { return s.reg.budget }

// ContextBudgetUsed returns the SAT units (variables + clauses + learnts over
// all lanes) the registered context groups hold against their budget.
func (s *Solver) ContextBudgetUsed() int64 { return s.reg.usage() }

// NumCacheEvicted returns how many settled validity-cache entries were
// evicted (least recently used first) to keep the cache within its budget.
func (s *Solver) NumCacheEvicted() int64 { return s.cache.evicted.Load() }

// NumAssumptionProbes returns how many probes were decided incrementally
// (under assumptions in a persistent context) instead of from scratch. Every
// cache-missing Valid call through a context increments exactly one of
// NumQueries and NumAssumptionProbes.
func (s *Solver) NumAssumptionProbes() int64 { return s.ctxProbes.Load() }

// NumLemmaReuseHits returns how many incremental probes started against a
// SAT instance that already held learnt clauses or persisted theory lemmas
// from earlier probes.
func (s *Solver) NumLemmaReuseHits() int64 { return s.lemmaReuse.Load() }

// NumSharedLemmas returns how many theory lemmas were imported across sibling
// lanes of a context group (each import counts once per receiving lane).
func (s *Solver) NumSharedLemmas() int64 { return s.lemmasShared.Load() }

// NumStoreVerdictHits returns how many cache-missing validity checks were
// answered from the on-disk knowledge store instead of being decided.
func (s *Solver) NumStoreVerdictHits() int64 { return s.storeHits.Load() }

// NumWarmLemmas returns how many persisted theory lemmas were seeded into
// freshly created context groups from the knowledge store.
func (s *Solver) NumWarmLemmas() int64 { return s.lemmasWarm.Load() }

// Knowledge returns the attached on-disk store, or nil.
func (s *Solver) Knowledge() *store.Store { return s.opts.Store }

// NumDormantContexts returns how many context lanes went dormant (Ackermann
// pair budget exhausted — the only remaining dormancy trigger now that
// general-LIA atom sets route through persistent LinCheckers).
func (s *Solver) NumDormantContexts() int64 { return s.ctxDormant.Load() }

// NumFMScratch returns how many from-scratch Fourier–Motzkin eliminations ran
// (decideGround's general-LIA fallback; one per theory iteration there).
func (s *Solver) NumFMScratch() int64 { return s.fmScratch.Load() }

// NumFMIncremental returns how many eliminations persistent LinCheckers ran
// (checks that missed their conflict-cube store).
func (s *Solver) NumFMIncremental() int64 { return s.fmCounters.Runs.Load() }

// NumFMCubeHits returns how many LinChecker checks were answered from a
// persisted conflict cube, skipping the elimination entirely.
func (s *Solver) NumFMCubeHits() int64 { return s.fmCounters.CubeHits.Load() }

// NumFMCapHits returns how many Fourier–Motzkin runs (from-scratch or
// incremental) hit the derived-constraint cap and returned a conservative
// Truncated "satisfiable".
func (s *Solver) NumFMCapHits() int64 { return s.fmCounters.CapHits.Load() }

// Incremental reports whether persistent assumption-based contexts are
// enabled (Options.NoIncremental unset).
func (s *Solver) Incremental() bool { return !s.opts.NoIncremental }

// ContextFor returns the persistent incremental context keyed by a compiled
// VC skeleton, creating it on first use. Returns nil when incremental solving
// is disabled; callers must then fall back to Valid. The registry keeps its
// groups within ctxBudget SAT units, evicting the least recently used ones,
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
		s.cacheHits.Add(1)
		return e.val
	}
	var skey string
	if s.opts.Store != nil {
		skey = store.FormulaKey(n.Formula())
		if v, ok := s.opts.Store.Verdict(skey); ok {
			s.storeHits.Add(1)
			s.stats.RecordStoreLookup(true)
			e.settle(v)
			return v
		}
		s.stats.RecordStoreLookup(false)
	}
	start := time.Now()
	var v bool
	sn := n.Simplified()
	if b, ok := sn.Formula().(logic.Bool); ok {
		v = b.Val
	} else if ground, done, gv := s.groundForm(sn.Negated()); done {
		v = !gv
	} else {
		v = !s.decideGround(ground)
	}
	s.stats.RecordQuery(time.Since(start))
	s.queries.Add(1)
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

// normalizeForSolving is the solver-side preprocessing chain, memoized per
// interned formula via IFormula.Normalized: array equalities become
// quantified element equalities, then Simplify, NNF, bound-variable
// standardization, and skolemization. Each Namer is created fresh here, so
// the result is a pure function of the input formula.
func normalizeForSolving(f logic.Formula) logic.Formula {
	f = logic.RewriteArrayEq(f, logic.NewNamer("@q"))
	f = logic.Simplify(f)
	if b, ok := f.(logic.Bool); ok {
		return b
	}
	f = logic.NNF(f)
	f = logic.StandardizeApart(f, logic.NewNamer("@b"))
	return skolemize(f, nil, logic.NewNamer("@sk"))
}

// Satisfiable reports whether f has a model, modulo bounded quantifier
// instantiation: "false" (unsat) is sound; "true" is exact for ground
// formulas and best-effort for quantified ones.
func (s *Solver) Satisfiable(f logic.Formula) bool {
	ground, done, v := s.groundForm(logic.Intern(f))
	if done {
		return v
	}
	return s.decideGround(ground)
}

// groundForm runs the pure preprocessing pipeline shared by the from-scratch
// and incremental paths: normalization followed by bounded quantifier
// instantiation. It returns the ground formula to decide, or done=true with
// the syntactic verdict. The result is a pure function of the formula and the
// solver options, so incremental contexts can preprocess per probe and still
// agree with Satisfiable on every query. Taking the interned handle lets
// callers that already hold one (Valid's negation chain) skip a full hash
// walk of the formula.
func (s *Solver) groundForm(n *logic.IFormula) (ground logic.Formula, done, v bool) {
	f := n.Normalized(normalizeForSolving).Formula()
	if b, ok := f.(logic.Bool); ok {
		return nil, true, b.Val
	}

	bound := boundVarNames(f)
	ground = f
	if len(bound) > 0 {
		var prev *instEnv
		for round := 0; round < s.opts.InstRounds; round++ {
			// Candidates come from both the quantified formula (guard
			// boundary terms, original index terms) and the previous ground
			// round (skolem witnesses that appeared as array indices). In
			// round 0 the two coincide and the collectors dedup by term, so
			// walking f once yields the identical candidate sets.
			var both logic.Formula = f
			if round > 0 {
				both = logic.And{Fs: []logic.Formula{f, ground}}
			}
			env := &instEnv{
				fallback:     collectInstTerms(both, bound),
				arrIndices:   groundArrayIndices(both, bound),
				maxInstances: s.opts.MaxInstances,
				triggers:     s.triggers,
			}
			if env.converged(prev) {
				break
			}
			prev = env
			ground = instantiate(f, env)
		}
		ground = logic.Simplify(ground)
	}
	return ground, false, false
}

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
// lazy DPLL(T).
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
	enc := &encoder{s: solver, atomVar: map[int]int{}}
	root := enc.encode(p)
	if !solver.AddClause(root) {
		return false
	}

	// Parallel arrays mapping atom index → SAT variable, built on demand by
	// the encoder; iterate deterministically over atom indices so conflict
	// clauses (and hence iteration counts) are reproducible run to run.
	atoms := make([]int, 0, len(enc.atomVar))
	for atom := range enc.atomVar {
		atoms = append(atoms, atom)
	}
	sort.Ints(atoms)
	// The atom set is fixed across theory iterations, so precompute each
	// atom's SAT variable, its constraint, and its integer negation once.
	// Negate clones the coefficient map, and doing that per false atom per
	// iteration — plus Check rebuilding its constraint graph per call — was
	// most of the solver's allocation volume. When every atom is a
	// difference constraint (the common case; §3 of the paper's evaluation
	// programs stay in this fragment), a preprocessed DiffChecker makes the
	// per-iteration theory check allocation-free.
	atomVars := make([]int, len(atoms))
	posLins := make([]lia.Lin, len(atoms))
	negLins := make([]lia.Lin, len(atoms))
	for k, atom := range atoms {
		atomVars[k] = enc.atomVar[atom]
		posLins[k] = g.lins[atom]
		negLins[k] = g.lins[atom].Negate()
	}
	diff, allDiff := lia.NewDiffChecker(posLins)
	assign := make([]bool, len(atoms))
	lits := make([]sat.Lit, len(atoms))
	var cons []lia.Lin // fallback path only
	for iter := 0; iter < s.opts.MaxTheoryIterations; iter++ {
		if s.opts.Stop != nil && s.opts.Stop() {
			return true // conservative: Valid() reports false
		}
		if solver.Solve() == sat.Unsat {
			return false
		}
		for k, v := range atomVars {
			val := solver.Value(v)
			assign[k] = val
			lits[k] = sat.MkLit(v, !val)
		}
		var res lia.Result
		if allDiff {
			res = diff.Check(assign)
		} else {
			cons = cons[:0]
			for k, val := range assign {
				if val {
					cons = append(cons, posLins[k])
				} else {
					cons = append(cons, negLins[k])
				}
			}
			s.fmScratch.Add(1)
			res = lia.Check(cons)
			if res.Truncated {
				s.fmCounters.CapHits.Add(1)
				s.stats.RecordFMCapHit()
			}
		}
		if res.Sat {
			return true
		}
		blocking := make([]sat.Lit, 0, len(res.Conflict))
		for _, ci := range res.Conflict {
			blocking = append(blocking, lits[ci].Not())
		}
		if !solver.AddClause(blocking...) {
			return false
		}
	}
	// Resource bound hit: report "satisfiable", i.e. Valid() answers false,
	// the conservative direction for every client algorithm.
	return true
}

// encoder performs one-sided (NNF/plaisted-greenbaum) Tseitin encoding of a
// prop into the SAT solver.
type encoder struct {
	s        *sat.Solver
	atomVar  map[int]int // theory atom index → SAT variable
	trueVar  int
	haveTrue bool
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
		for _, child := range p.ps {
			cl := e.encode(child)
			e.s.AddClause(gl.Not(), cl)
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
		e.s.AddClause(clause...)
		return gl
	}
	panic("smt: unknown prop")
}
