package smt

import (
	"container/list"
	"sort"
	"sync"
	"time"

	"repro/internal/lia"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/stats"
	"repro/internal/store"
)

// Context is a persistent incremental solving context, keyed by a compiled
// VC skeleton: the iterative algorithms decide thousands of near-identical
// queries — the same skeleton with a different candidate predicate fill each
// time — and a Context keeps one SAT instance plus theory state alive across
// all of them instead of rebuilding both per probe. It is the skeleton's only
// one: concurrent probes of the skeleton wait for its lock in turn.
//
// What persists, and why it is sound to share it:
//
//   - Atom interning (grounder): an inequality atom means the same thing in
//     every probe, so atoms keep their SAT variable across probes.
//   - Encoded skeleton structure (strash): each atom and gate is encoded
//     once per SAT instance and keyed by its structure over SAT literals —
//     an atom by its own structure, a gate by its connective plus its
//     children's literals — so a later probe that resolves to the same
//     literals reuses them whatever formula values it was built from. The
//     one-sided Tseitin encoding of a gate never forces anything unless its
//     literal is implied, so clauses from earlier probes are vacuously
//     satisfiable in later ones — each probe asserts only its own root, as
//     an assumption.
//     Their gates are switched off (sat.Solver.SetDecision) outside the
//     probe's cone, the gates its assumptions reach (switchCone): setting
//     every unreached gate false extends any model of the reached clauses
//     to a model of all clauses, so the probe neither branches on nor
//     propagates other probes' gates, and its verdict is the one the
//     all-on instance gives.
//   - Theory lemmas and Ackermann constraints: both are theory-valid facts
//     about the atoms, true in every integer model, so asserting them
//     globally can never flip a verdict. A lemma is the clause the online
//     theory check (theoryHook) returns inside a probe's SAT search; the
//     SAT solver keeps it as a problem clause, so it outlives the probe
//     that found it.
//   - Learnt clauses: resolvents of the above, bounded by the SAT solver's
//     reduceDB.
//
// Verdict agreement with the from-scratch path holds because both sides run
// the same online DPLL(T) search over the same theory procedures:
// Bellman–Ford (sound and complete over the integers) while every interned
// atom is a difference constraint, and the same Fourier–Motzkin engine —
// persisted as a lia.LinChecker with a conflict-cube store — from the first
// general linear atom on. Checking the theory inside the SAT search, rather
// than after it, changes the order lemmas are learnt in, never a verdict:
// the checkers are complete over their fragments. The asymmetries are the
// caps. The FM derived-constraint cap: the context checks its cumulative
// atom set where the fresh path checks per-probe sets, so the context can
// hit the cap on workloads where the fresh path would not. And the cap on
// theory conflicts per probe (Options.MaxTheoryIterations), whose count
// depends on the lemmas earlier probes left. Cap hits are conservative
// ("satisfiable", so Valid reports false), FM cap hits are counted
// (Solver.NumFMCapHits, stats fm_cap_hits), and neither accepts a bad
// invariant. The only remaining dormancy trigger is Ackermann pair-budget
// exhaustion, where the context's cumulative budget could diverge from the
// fresh path's per-probe one.
type Context struct {
	s *Solver

	// skel is the skeleton's portable identity (store.FormulaKey), set when
	// a knowledge store is attached. It keys the context's lemmas on disk:
	// lemmas is seeded from the store at creation, and lemmas the context
	// learns are written behind it. Empty when no store is attached (or for
	// standalone consistency contexts, whose vocabulary has no skeleton
	// identity).
	skel string

	// Registry bookkeeping, guarded by the solver's ctxRegistry lock: the
	// skeleton the context is registered under (nil for standalone
	// contexts; set before the registry hands the context out) and its LRU
	// element (nil once evicted, or never registered). units is the SAT
	// size (variables + clauses + learnts) last charged to the registry's
	// budget; grow writes it under both the registry's lock and mu, so
	// either suffices to read it.
	key   *logic.IFormula
	elem  *list.Element
	units int64

	// plan is the skeleton's grounding plan (registered contexts only),
	// compiled by the first probe that grounds with a fill. Probes ground
	// before they take mu, so the plan guards its own memos.
	planOnce sync.Once
	plan     *groundPlan

	// mu guards everything below: a probe holds it from encoding to
	// verdict, and concurrent probes of one skeleton wait for it.
	mu sync.Mutex

	// dead marks the context dormant (the Ackermann pair budget was
	// exhausted); every later probe falls back to the parent solver's
	// from-scratch path.
	dead bool

	// lemmas are theory lemmas in grounder-independent form — (lia.Lin,
	// value) vectors — that every SAT instance of the context asserts:
	// seeded from the knowledge store, then, while a store is attached,
	// extended by the context's own lemmas up to ctxMaxLemmas, so a reset
	// re-imports them with the rest. imported is how many of them the
	// current SAT instance holds; reset together with it.
	lemmas   []theoryLemma
	imported int

	sat *sat.Solver
	g   *grounder
	enc *encoder

	// strash memoizes the context's encoded probe formulas by structure over
	// SAT literals (strash.go): re-encoding repeated skeleton structure
	// costs one map probe per node and allocates nothing.
	strash strash

	// selOf memoizes the selector literal of an interned predicate for
	// Consistent probes; selBad marks predicates the context cannot encode
	// exactly (quantified after normalization).
	selOf  map[*logic.IFormula]sat.Lit
	selBad map[*logic.IFormula]bool

	// The strash's entries and selAtoms record, per encoded atom or gate /
	// interned predicate, the sorted grounder atom indices its encoding
	// mentions. ackPairs records each asserted Ackermann pair — the result
	// variables of its two occurrences plus the atoms of its clause — and
	// occName/occDeps the occurrence-variable dependency graph (an
	// occurrence's arguments may mention nested occurrence variables).
	// Together they give each probe its relevant atom subset, which the
	// general-LIA checker is narrowed to (LinChecker.SetProbe): the
	// context's cumulative atom set only grows, and eliminating over atoms a
	// probe does not constrain would make every check more expensive than
	// the from-scratch path.
	selAtoms   map[*logic.IFormula][]int
	ackPairs   []ackPair
	occName    map[string]bool
	occDeps    map[string][]string
	probeAtoms []int // reusable buffer for the current probe's atom subset

	// emitted[sym] is how many occurrences of sym are already pairwise
	// covered by asserted Ackermann constraints; pairCount is the running
	// total, checked against Options.MaxAckermannPairs.
	emitted   map[string]int
	pairCount int

	// hook is the context's theory check, attached to its SAT instance: dense
	// over the context's full atom set (hook.atomVars[i] is the SAT variable
	// of grounder atom i), with the preprocessed checker over all atoms — a
	// DiffChecker (rebuilt whenever the set grows) while every atom is a
	// difference constraint, a LinChecker (extended in place, conflict cubes
	// surviving growth) from the first general linear atom on.
	hook theoryHook
	lin  *lia.LinChecker // non-nil iff the hook's checker is the general-LIA one

	// gates records the probe gates of the context's SAT instance and their
	// gate children; before each probe exactly the cone its assumptions
	// reach is switched on (switchCone).
	gates gateGraph

	// satSeen is the context's SAT work (decisions, propagations) already
	// folded into the solver's counters.
	satSeen [2]int64
}

const (
	// ctxMaxLearnts bounds the persistent SAT instance's learnt database
	// (activity-based reduceDB kicks in beyond it).
	ctxMaxLearnts = 4000
	// ctxMaxVars recycles a context once probe-local gate variables
	// accumulate past this bound; a recycled context restarts empty, which
	// is always sound (it is exactly a fresh context) — apart from its
	// lemmas, which it re-imports.
	ctxMaxVars = 200000
	// ctxMaxLemmas bounds one context's lemma list; beyond it the context
	// stops keeping the lemmas it learns (the store still receives them).
	ctxMaxLemmas = 4096
)

// theoryLemma is one theory conflict in grounder-independent form: the
// conjunction of (lin_i ≤ 0) == val_i over the listed atoms is
// integer-infeasible.
type theoryLemma struct {
	lins []lia.Lin
	vals []bool
}

func (s *Solver) newContext() *Context { return s.newContextKeyed("") }

// newContextKeyed creates a context, seeding its lemmas from the knowledge
// store when the skeleton has persisted ones: the first probe asserts them
// through importLemmas, re-interned into the context's own atom space.
func (s *Solver) newContextKeyed(skel string) *Context {
	s.ctr.Add(stats.Contexts, 1)
	c := &Context{s: s, skel: skel}
	if st := s.opts.Store; st != nil && skel != "" {
		warm := st.Lemmas(skel)
		if len(warm) > ctxMaxLemmas {
			warm = warm[:ctxMaxLemmas]
		}
		for _, w := range warm {
			c.lemmas = append(c.lemmas, theoryLemma{lins: w.Lins, vals: w.Vals})
		}
		s.ctr.Add(stats.StoreWarmLemmas, int64(len(warm)))
	}
	c.reset()
	return c
}

func (c *Context) reset() {
	c.sat = sat.New()
	c.sat.MaxLearnts = ctxMaxLearnts
	c.satSeen = [2]int64{}
	c.g = newGrounder()
	c.gates = gateGraph{arena: []int32{0}}
	c.enc = &encoder{s: c.sat, atomVar: map[int]int{}, gates: &c.gates}
	c.strash = newStrash()
	c.selOf = map[*logic.IFormula]sat.Lit{}
	c.selBad = map[*logic.IFormula]bool{}
	c.selAtoms = map[*logic.IFormula][]int{}
	c.ackPairs = nil
	c.occName = map[string]bool{}
	c.occDeps = map[string][]string{}
	c.probeAtoms = nil
	c.emitted = map[string]int{}
	c.pairCount = 0
	c.hook = theoryHook{s: c.s}
	c.sat.Theory = &c.hook
	c.lin = nil
	c.imported = 0
}

// ValidFill mirrors Solver.Valid — same memo table, same trivial
// short-circuits, same conservative treatment of Stop — but decides cache
// misses through the persistent context: the probe's ground formula is
// encoded into the shared SAT instance and solved under a single assumption
// literal, reusing learnt clauses, theory lemmas, Ackermann constraints, and
// the difference-fragment preprocessing of all earlier probes. Falls back to
// the from-scratch decision when the context cannot answer exactly (it is
// dormant); verdicts are identical either way.
//
// fill, when non-nil, is what f was built from: f is the context's skeleton
// with each unknown u replaced by fill[u]. The probe is then grounded
// through the context's grounding plan, which shares all skeleton work
// across its probes. The validity cache and the knowledge store are keyed
// by f alone, exactly as without a fill.
func (c *Context) ValidFill(f logic.Formula, fill map[string]logic.Formula) bool {
	if v, ok := logic.TrivialVerdict(f); ok {
		return v
	}
	n := logic.Intern(f)
	e, hit := c.s.cache.lookupOrClaim(n)
	if hit {
		<-e.done
		c.s.ctr.Add(stats.CacheHits, 1)
		return e.val
	}
	var skey string
	if c.s.opts.Store != nil {
		skey = store.FormulaKey(n.Formula())
		if v, ok := c.s.opts.Store.Verdict(skey); ok {
			c.s.ctr.Add(stats.StoreVerdictHits, 1)
			e.settle(v)
			return v
		}
		c.s.ctr.Add(stats.StoreMisses, 1)
	}
	start := time.Now()
	ground, decided, v := c.s.ground(n, c, fill)
	if decided {
		c.s.ctr.Add(stats.Queries, 1)
	} else if satisfiable, ok := c.decide(ground); ok {
		v = !satisfiable
		c.s.ctr.Add(stats.AssumptionProbes, 1)
	} else {
		v = !c.s.decideGround(ground)
		c.s.ctr.Add(stats.Queries, 1)
	}
	c.s.stats.RecordQuery(time.Since(start))
	e.settle(v)
	if c.s.opts.Stop != nil && c.s.opts.Stop() {
		// Same rule as Solver.Valid: an abandoned, conservative verdict must
		// not be memoized as real.
		c.s.cache.forget(n, e)
	} else if c.s.opts.Store != nil {
		c.s.opts.Store.AppendVerdict(skey, v)
	}
	return v
}

// groundPlan returns the context's grounding plan, compiling it on first use.
func (c *Context) groundPlan() *groundPlan {
	c.planOnce.Do(func() {
		c.plan = newGroundPlan(c.s, c.key.Formula())
		c.s.ctr.Add(stats.GroundPlans, 1)
	})
	return c.plan
}

// decide decides satisfiability of a ground formula incrementally, waiting
// for the context's lock. ok=false means the context is dormant and the
// caller must take the from-scratch path.
func (c *Context) decide(ground logic.Formula) (satisfiable, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.account()
	if c.dead {
		return false, false
	}
	if c.sat.NumVars() > ctxMaxVars {
		c.reset()
	}
	root, rootAtoms := c.encNode(ground)
	satisfiable, _, ok = c.solve([]sat.Lit{root}, rootAtoms)
	return satisfiable, ok
}

// Consistent reports whether the conjunction of preds has a model. When it
// does not, core is a subset of preds whose conjunction is already
// unsatisfiable — and since conjoining more predicates only strengthens the
// formula, any superset of the core is unsatisfiable too, which is what lets
// the lattice search kill whole sublattices per core. ok=false means the
// context could not answer exactly (a predicate normalizes to a quantified
// formula, or the context is dormant) and the caller must fall back to the
// from-scratch path.
//
// Each distinct predicate becomes one selector literal (its encoded root),
// probes are SolveAssuming calls over the selected literals, and the SAT
// core maps back to predicate identities through the selector table.
func (c *Context) Consistent(preds []logic.Formula) (consistent bool, core []logic.Formula, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.account()
	if c.dead {
		return false, nil, false
	}
	if c.sat.NumVars() > ctxMaxVars {
		c.reset()
	}
	assumps := make([]sat.Lit, 0, len(preds))
	selSets := make([][]int, 0, len(preds))
	owner := make(map[sat.Lit]logic.Formula, len(preds))
	for _, p := range preds {
		l, atoms, good := c.selector(p)
		if !good {
			return false, nil, false
		}
		if _, dup := owner[l]; !dup {
			owner[l] = p
			assumps = append(assumps, l)
			selSets = append(selSets, atoms)
		}
	}
	consistent, satCore, ok := c.solve(assumps, selSets...)
	if !ok {
		return false, nil, false
	}
	c.s.ctr.Add(stats.AssumptionProbes, 1)
	if consistent {
		return true, nil, true
	}
	for _, l := range satCore {
		if p, isSel := owner[l]; isSel {
			core = append(core, p)
		}
	}
	return false, core, true
}

// solve runs one probe under the assumptions. It first asserts the lemmas
// and Ackermann constraints the SAT instance lacks, narrows the general-LIA
// checker to the probe's atoms (the union of atomSets, plus the Ackermann
// pairs they reach) and switches on the assumptions' cone. ok=false when
// the Ackermann budget ran out and the context went dormant. The context's
// lock must be held.
func (c *Context) solve(assumps []sat.Lit, atomSets ...[]int) (satisfiable bool, core []sat.Lit, ok bool) {
	c.importLemmas()
	if !c.emitAckermann() {
		c.dead = true
		c.s.ctr.Add(stats.DormantContexts, 1)
		return false, nil, false
	}
	c.syncAtoms()
	if c.lin != nil {
		c.lin.SetProbe(c.probeAtomSet(atomSets...))
	}
	if c.sat.Stats.TheoryConflicts > 0 || c.sat.NumLearnts() > 0 {
		c.s.ctr.Add(stats.LemmaReuse, 1)
	}
	c.switchCone(assumps...)
	// The probe's lemmas are recorded only when the knowledge store
	// consumes them.
	var learnt []theoryLemma
	var rec *[]theoryLemma
	if c.skel != "" {
		rec = &learnt
	}
	satisfiable, core = c.hook.decide(c.sat, rec, assumps...)
	c.keep(learnt)
	if probeCheck != nil {
		probeCheck(c, assumps, satisfiable)
	}
	return satisfiable, core, true
}

// keep appends the lemmas a probe learnt to the context's lemma list, up to
// ctxMaxLemmas, and writes them behind to the knowledge store. They are
// clauses of the current SAT instance already, so imported moves past them.
// Lemmas are theory-valid facts regardless of how the probe ended, so
// keeping them needs no Stop guard.
func (c *Context) keep(lems []theoryLemma) {
	if len(lems) == 0 {
		return
	}
	if room := ctxMaxLemmas - len(c.lemmas); room > 0 {
		c.lemmas = append(c.lemmas, lems[:min(room, len(lems))]...)
		c.imported = len(c.lemmas)
	}
	for _, lem := range lems {
		c.s.opts.Store.AppendLemma(c.skel, store.Lemma{Lins: lem.lins, Vals: lem.vals})
	}
}

// account publishes the context's change in SAT size since its last probe
// to the registry's budget accounting (registered contexts only; a
// standalone consistency context is bounded by ctxMaxVars alone). The
// context's lock must be held.
func (c *Context) account() {
	c.countSAT()
	if c.key == nil {
		return
	}
	n := int64(c.sat.NumVars() + c.sat.NumClauses() + c.sat.NumLearnts())
	if d := n - c.units; d != 0 {
		c.s.reg.grow(c, d)
	}
}

// countSAT folds the context's SAT work since its last call into the
// solver's counters. account calls it after every probe, so nothing is left
// uncounted when the context is later reset or evicted. The context's lock
// must be held.
func (c *Context) countSAT() {
	st := &c.sat.Stats
	c.s.countSAT(st.Decisions-c.satSeen[0], st.Propagations-c.satSeen[1])
	c.satSeen = [2]int64{st.Decisions, st.Propagations}
}

// importLemmas asserts every lemma of the context's list the current SAT
// instance has not seen yet, re-interning each (lin, value) vector into the
// context's atom space. New atoms get SAT variables immediately; the
// following syncAtoms call folds them into the dense theory-check state.
func (c *Context) importLemmas() {
	for _, lem := range c.lemmas[c.imported:] {
		clause := make([]sat.Lit, len(lem.lins))
		usable := true
		for k, l := range lem.lins {
			pl, isLit := c.g.internLeq(l).(pLit)
			if !isLit {
				usable = false
				break
			}
			v, have := c.enc.atomVar[pl.atom]
			if !have {
				v = c.sat.NewVar()
				c.enc.atomVar[pl.atom] = v
			}
			// The conflict asserted (l ≤ 0) == vals[k]; in terms of the
			// canonical atom that is atom == (vals[k] XOR pl.neg), and the
			// clause carries its negation.
			clause[k] = sat.MkLit(v, lem.vals[k] != pl.neg)
		}
		if usable {
			c.sat.AddClause(clause...)
		}
	}
	c.imported = len(c.lemmas)
}

// selector returns the literal asserting pred's normalized ground encoding,
// plus the sorted atom indices that encoding mentions (the predicate's
// contribution to a probe's atom subset). good=false when the predicate
// normalizes to a quantified formula, which the per-predicate encoding
// cannot capture exactly (instantiation terms would depend on the rest of
// the conjunction).
func (c *Context) selector(p logic.Formula) (lit sat.Lit, atoms []int, good bool) {
	n := logic.Intern(p)
	if c.selBad[n] {
		return 0, nil, false
	}
	if l, ok := c.selOf[n]; ok {
		return l, c.selAtoms[n], true
	}
	nf := n.Normalized(normalizeForSolving).Formula()
	if b, ok := nf.(logic.Bool); ok {
		l := c.constLit(b.Val)
		c.selOf[n] = l
		return l, nil, true
	}
	if len(boundVarNames(nf)) > 0 {
		c.selBad[n] = true
		return 0, nil, false
	}
	l, atoms := c.encNode(nf)
	c.selOf[n] = l
	c.selAtoms[n] = atoms
	return l, atoms, true
}

// gateGraph records a context's probe gates — the Tseitin gates encNode and
// the encoder create for probe formulas — and the gate→child edges between
// them in an append-only int32 arena, dropped with the SAT instance by reset.
// Atoms, the constant and Ackermann gates are not probe gates: they stay
// switched on in every probe.
type gateGraph struct {
	// start[v] is the arena offset of gate v's entry — its gate-child count
	// followed by the children's variables — or -1 when v is not a probe
	// gate (atom variables interleave with gates). Offset 0 holds a shared
	// empty entry for gates whose children are all atoms.
	start []int32
	arena []int32
	// on lists the gates switched on for the current probe.
	on []int32
}

// add records a new gate v over the child literals kids (recorded children
// first, so a child gate is known by the time its parent is added) and
// switches it off until a probe's cone reaches it.
func (g *gateGraph) add(s *sat.Solver, v int, kids []sat.Lit) {
	for len(g.start) <= v {
		g.start = append(g.start, -1)
	}
	at := int32(0)
	for _, k := range kids {
		if !g.isGate(k.Var()) {
			continue
		}
		if at == 0 {
			at = int32(len(g.arena))
			g.arena = append(g.arena, 0)
		}
		g.arena[at]++
		g.arena = append(g.arena, int32(k.Var()))
	}
	g.start[v] = at
	s.SetDecision(v, false)
}

func (g *gateGraph) isGate(v int) bool { return v < len(g.start) && g.start[v] >= 0 }

// switchCone switches off the previous probe's gates and switches on exactly
// the gates the given assumption literals reach. Soundness (DESIGN §10, "A
// probe decides only its cone"): a probe gate occurs positively only in its
// parents' definitional clauses, so setting every unreached gate false
// extends any assignment that satisfies the reached clauses to a model of
// every clause, learnt ones included — each probe's SAT and theory
// questions are the ones the all-on instance asks.
func (c *Context) switchCone(assumps ...sat.Lit) {
	g := &c.gates
	for _, v := range g.on {
		c.sat.SetDecision(int(v), false)
	}
	g.on = g.on[:0]
	visit := func(v int) {
		if g.isGate(v) && !c.sat.Decision(v) {
			c.sat.SetDecision(v, true)
			g.on = append(g.on, int32(v))
		}
	}
	for _, a := range assumps {
		visit(a.Var())
	}
	for i := 0; i < len(g.on); i++ {
		at := g.start[g.on[i]]
		for _, k := range g.arena[at+1 : at+1+g.arena[at]] {
			visit(int(k))
		}
	}
}

// probeCheck, when non-nil, sees every decided context probe: the context
// (its lock held), the probe's assumption literals and its verdict. Tests
// install it to re-decide the probe with every variable switched on.
var probeCheck func(c *Context, assumps []sat.Lit, satisfiable bool)

// sortedDedup sorts xs ascending and removes duplicates in place.
func sortedDedup(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func (c *Context) constLit(v bool) sat.Lit {
	l := c.enc.constTrue()
	if !v {
		l = l.Not()
	}
	return l
}

// emitAckermann asserts functional-consistency constraints for application
// occurrences recorded since the last probe, pairing each new occurrence
// with every earlier occurrence of its symbol. The constraints are
// theory-valid — any model extends to an assignment of all application
// variables respecting functionality — so asserting them globally never
// changes a probe's verdict. Reports false when the cumulative pair budget
// is exhausted (the fresh path's per-probe cap could then diverge from the
// context's cumulative one, so the context goes dormant instead of guessing).
func (c *Context) emitAckermann() bool {
	// The constraints are asserted globally, so their gates stay switched on.
	c.enc.gates = nil
	defer func() { c.enc.gates = &c.gates }()
	syms := make([]string, 0, len(c.g.occs))
	for s, os := range c.g.occs {
		if len(os) > c.emitted[s] {
			syms = append(syms, s)
		}
	}
	sort.Strings(syms)
	// Name every new occurrence first: dependency extraction below must
	// recognize occurrence variables across symbols regardless of order.
	for _, s := range syms {
		os := c.g.occs[s]
		for j := c.emitted[s]; j < len(os); j++ {
			c.occName[os[j].v] = true
		}
	}
	for _, s := range syms {
		os := c.g.occs[s]
		for j := c.emitted[s]; j < len(os); j++ {
			var deps []string
			for _, a := range os[j].args {
				for v := range linOf(a).Coef {
					if c.occName[v] {
						deps = append(deps, v)
					}
				}
			}
			c.occDeps[os[j].v] = deps
			for i := 0; i < j; i++ {
				if c.pairCount >= c.s.opts.MaxAckermannPairs {
					return false
				}
				c.pairCount++
				// (args_i = args_j) ⇒ v_i = v_j, as ∨_k args differ ∨ equal.
				var disj []prop
				for k := range os[i].args {
					disj = append(disj, c.g.relProp(logic.Neq, os[i].args[k], os[j].args[k]))
				}
				disj = append(disj, c.g.relProp(logic.Eq, logic.V(os[i].v), logic.V(os[j].v)))
				p := mkOr(disj...)
				c.sat.AddClause(c.enc.encode(p))
				c.ackPairs = append(c.ackPairs, ackPair{
					a: os[i].v, b: os[j].v,
					atoms: sortedDedup(propAtoms(p, nil)),
				})
			}
		}
		c.emitted[s] = len(os)
	}
	return true
}

// ackPair is one asserted Ackermann constraint: the result variables of its
// two occurrences plus the sorted atoms of its clause. A pair joins a
// probe's atom subset only when both occurrences are reachable from the
// probe's atoms, mirroring the per-probe pair set the fresh path builds.
type ackPair struct {
	a, b  string
	atoms []int
}

// syncAtoms extends the dense atom ↔ SAT-variable mapping and the persistent
// theory checker to cover every interned atom. Difference-only atom sets keep
// the Bellman–Ford DiffChecker (rebuilt on growth — its preprocessing is a
// whole-graph property); the first atom outside the fragment switches the
// context to a LinChecker, which is thereafter extended in place so its
// learned conflict cubes survive atom-set growth (grounder indices are
// append-only).
func (c *Context) syncAtoms() {
	// The checker must exist even when the grounder produced no linear atoms
	// at all (every predicate constant-folded away): the hook still consults
	// it, and 0 == 0 atom counts must not skip its construction.
	h := &c.hook
	if h.checker != nil && len(h.atomVars) == len(c.g.lins) {
		return
	}
	for i := len(h.atomVars); i < len(c.g.lins); i++ {
		v, ok := c.enc.atomVar[i]
		if !ok {
			// Interned but never encoded (constant-eliminated branch); it
			// still needs a variable so the model covers the full atom set.
			v = c.sat.NewVar()
			c.enc.atomVar[i] = v
		}
		h.atomVars = append(h.atomVars, v)
	}
	h.lins = c.g.lins
	switch {
	case c.lin != nil:
		c.lin.Extend(c.g.lins[c.lin.Len():])
	default:
		if d, ok := lia.NewDiffChecker(c.g.lins); ok {
			h.checker = d
		} else {
			c.lin = lia.NewLinChecker(c.g.lins, &c.s.ctr)
			h.checker = c.lin
		}
	}
	h.assign = make([]bool, len(h.atomVars))
}

// probeAtomSet computes the current probe's relevant atom subset into the
// context's reusable buffer, sorted ascending: the union of the given
// per-node encoding atom sets, plus the clauses of every Ackermann pair
// whose occurrences are reachable from those atoms (an occurrence is
// reachable when its result variable appears in a probe atom, or in the
// arguments of a reachable occurrence). This mirrors the per-probe systems
// the from-scratch path checks — its grounder only ever holds one probe's
// atoms and occurrence pairs.
func (c *Context) probeAtomSet(sets ...[]int) []int {
	raw := c.probeAtoms[:0]
	for _, s := range sets {
		raw = append(raw, s...)
	}
	if len(c.occName) > 0 {
		reach := map[string]bool{}
		var queue []string
		visit := func(v string) {
			if c.occName[v] && !reach[v] {
				reach[v] = true
				queue = append(queue, v)
			}
		}
		for _, ai := range raw {
			for v := range c.g.lins[ai].Coef {
				visit(v)
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, d := range c.occDeps[v] {
				visit(d)
			}
		}
		for i := range c.ackPairs {
			pr := &c.ackPairs[i]
			if reach[pr.a] && reach[pr.b] {
				raw = append(raw, pr.atoms...)
			}
		}
	}
	c.probeAtoms = sortedDedup(raw)
	return c.probeAtoms
}
