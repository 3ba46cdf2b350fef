package smt

import (
	"container/list"
	"sort"
	"sync"

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
// Every decision runs on a Context. A from-scratch query — Solver.Valid, a
// dormant context's fallback — runs on a one-shot context (oneShot): the
// same encoding, the same online DPLL(T) search (theoryHook) and the same
// theory checkers, over a SAT instance that serves one formula and is then
// dropped. Verdicts agree between a persistent context and a one-shot one
// because the checkers are complete over their fragments: Bellman–Ford
// (sound and complete over the integers) while every interned atom is a
// difference constraint, Fourier–Motzkin (lia.LinChecker, narrowed to the
// probe's atoms) from the first general linear atom on. Lemmas, learnt
// clauses and the order a search meets them change how a verdict is found,
// never the verdict. The asymmetries are the caps. The FM derived-constraint
// cap, which a persistent context can reach on workloads where a one-shot
// one would not, and the cap on theory conflicts per probe
// (Options.MaxTheoryIterations), whose count depends on the lemmas earlier
// probes left. Cap hits are conservative ("satisfiable", so Valid reports
// false), FM cap hits are counted (Solver.NumFMCapHits, stats fm_cap_hits),
// and neither accepts a bad invariant. The only dormancy trigger is
// Ackermann pair-budget exhaustion, where a persistent context's cumulative
// budget could diverge from a one-shot context's per-formula one: the
// persistent context goes dormant and every later probe falls back to a
// one-shot context, which on exhaustion decides with the pairs it has
// asserted (dropping pairs only weakens the formula).
type Context struct {
	s *Solver

	// skel is the skeleton's portable identity (store.FormulaKey), set when
	// a knowledge store is attached. It keys the context's lemmas on disk:
	// lemmas is seeded from the store at creation, and lemmas the context
	// learns are written behind it. Empty when no store is attached (or for
	// standalone consistency contexts, whose vocabulary has no skeleton
	// identity).
	skel string

	// oneShot marks a context that decides one from-scratch query
	// (Solver.decideOnce) and is then dropped: it is not registered or
	// counted in smt_contexts, its eliminations count as fm_scratch, and it
	// never goes dormant.
	oneShot bool

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
	// compiled by the first probe that comes with a fill. Probes read it
	// before they take mu, so the plan guards its own memos.
	planOnce sync.Once
	plan     *groundPlan

	// mu guards everything below: a probe holds it from encoding to
	// verdict, and concurrent probes of one skeleton wait for it.
	mu sync.Mutex

	// dead marks the context dormant (the Ackermann pair budget was
	// exhausted, or the solver is not incremental); every later probe falls
	// back to a one-shot context.
	dead bool

	// lemmas are the theory lemmas every SAT instance of the context
	// asserts: seeded from the knowledge store, then, while a store is
	// attached, extended by the context's own lemmas up to ctxMaxLemmas, so
	// a reset re-imports them with the rest. imported is how many of them
	// the current SAT instance holds; reset together with it. warm holds the
	// store's lemmas for the skeleton until the first build moves them into
	// lemmas.
	lemmas   []theoryLemma
	imported int
	warm     []store.Lemma

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
	// isOcc/occDeps, indexed by grounder variable id, the occurrence-variable
	// dependency graph (an occurrence's arguments may mention nested
	// occurrence variables). Together they give each probe its relevant atom
	// subset, which the general-LIA checker is narrowed to
	// (LinChecker.SetProbe): the context's cumulative atom set only grows,
	// and eliminating over atoms a probe does not constrain would make every
	// check more expensive than a one-shot context's.
	selAtoms   map[*logic.IFormula][]int
	ackPairs   []ackPair
	isOcc      []bool    // by variable id: an occurrence variable
	occDeps    [][]int32 // by variable id: the occurrence variables its arguments mention
	probeAtoms []int     // reusable buffer for the current probe's atom subset

	// probeAtomSet's reachability scratch: reach[v] == epoch marks variable
	// v reached in the current probe, so no per-probe clearing is needed.
	reach []uint32
	epoch uint32
	queue []int32

	// emitted[sym] is how many occurrences of sym are already pairwise
	// covered by asserted Ackermann constraints, and emittedAll how many of
	// the grounder's occurrences in all; pairCount is the running total of
	// pairs, checked against Options.MaxAckermannPairs.
	emitted    map[string]int
	emittedAll int
	pairCount  int

	// hook is the context's theory check, attached to its SAT instance: dense
	// over the context's full atom set (hook.atomVars[i] is the SAT variable
	// of grounder atom i), with the preprocessed checker over all atoms — an
	// incremental DiffChecker while every atom is a difference constraint, a
	// LinChecker from the first general linear atom on. Both are extended in
	// place as the atom set grows.
	hook theoryHook

	// gates records the probe gates of the context's SAT instance and their
	// gate children; before each probe exactly the cone its assumptions
	// reach is switched on (switchCone), and coneSets collects the atom
	// sets of the guarded children it reaches.
	gates    gateGraph
	coneSets [][]int

	// comp is the encoding of the plan's compiled skeletons (compile.go),
	// and assumps a compiled probe's reusable assumption buffer.
	comp    compiled
	assumps []sat.Lit

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

// theoryLemma is one theory conflict: the conjunction of (atom_i ≤ 0) ==
// val_i over the listed atoms is integer-infeasible. A lemma learnt by the
// current SAT instance names its atoms by grounder index (atoms); one seeded
// from the knowledge store, or carried over a reset, holds them with their
// variables named (lins), as the store persists them, until importLemmas
// interns them.
type theoryLemma struct {
	lins  []lia.Lin
	atoms []int
	vals  []bool
}

// newContext creates a standalone context, built at once: it exists to be
// probed.
func (s *Solver) newContext() *Context {
	c := s.newContextKeyed("")
	c.reset()
	return c
}

// newContextKeyed creates a context, seeding its lemmas from the knowledge
// store when the skeleton has persisted ones: the first probe asserts them
// through importLemmas, re-interned into the context's own atom space. The
// SAT instance, grounder and checker are built, and the seeded lemmas
// copied in, by the first probe that reaches the context (ready): a warm
// lifetime answers most probes from the validity cache or the store and
// never builds them.
func (s *Solver) newContextKeyed(skel string) *Context {
	s.ctr.Add(stats.Contexts, 1)
	c := &Context{s: s, skel: skel}
	if st := s.opts.Store; st != nil && skel != "" {
		c.warm = st.Lemmas(skel)
		if len(c.warm) > ctxMaxLemmas {
			c.warm = c.warm[:ctxMaxLemmas]
		}
		s.ctr.Add(stats.StoreWarmLemmas, int64(len(c.warm)))
	}
	return c
}

// ready builds the context's SAT instance, grounder and checker on its first
// probe, and recycles them once probe-local gate variables accumulate past
// ctxMaxVars. The context's lock must be held.
func (c *Context) ready() {
	if c.sat == nil || c.sat.NumVars() > ctxMaxVars {
		c.reset()
	}
}

func (c *Context) reset() {
	if c.warm != nil {
		c.lemmas = make([]theoryLemma, len(c.warm))
		for i, w := range c.warm {
			c.lemmas[i] = theoryLemma{lins: w.Lins, vals: w.Vals}
		}
		c.warm = nil
	}
	if c.g != nil {
		// Lemmas learnt by the outgoing instance name their atoms through
		// its grounder, which goes with it.
		for i := range c.lemmas {
			if lem := &c.lemmas[i]; lem.lins == nil {
				lem.lins, lem.atoms = c.g.named(lem.atoms), nil
			}
		}
	}
	c.sat = sat.New()
	c.sat.MaxLearnts = ctxMaxLearnts
	c.satSeen = [2]int64{}
	c.g = newGrounder()
	c.enc = &encoder{s: c.sat, atomVar: map[int]int{}}
	c.strash = newStrash()
	c.ackPairs = nil
	c.isOcc = nil
	c.occDeps = nil
	c.probeAtoms = nil
	c.reach, c.epoch = nil, 0
	c.emitted = map[string]int{}
	c.emittedAll = 0
	c.pairCount = 0
	c.hook = theoryHook{s: c.s}
	c.hook.diff, _ = lia.NewDiffChecker(nil)
	c.sat.Theory = &c.hook
	c.imported = 0
	if c.oneShot {
		// One formula, one probe: no selectors, no cones to switch and no
		// compiled skeletons.
		return
	}
	c.gates = gateGraph{arena: []int32{0}}
	c.enc.gates = &c.gates
	c.selOf = map[*logic.IFormula]sat.Lit{}
	c.selBad = map[*logic.IFormula]bool{}
	c.selAtoms = map[*logic.IFormula][]int{}
	c.comp = compiled{}
}

// ValidFill reports whether f is valid, as Solver.Valid does — same memo
// table, same knowledge store, same trivial short-circuits, same
// conservative treatment of Stop — but decides cache misses as probes of
// the persistent context, reusing learnt clauses, theory lemmas, Ackermann
// constraints, and the difference-fragment preprocessing of all earlier
// probes. A dormant context decides from scratch instead; verdicts are
// identical either way.
//
// fill, when non-nil, is what f was built from: f is the context's skeleton
// with each unknown u replaced by fill[u], a conjunction of predicates. The
// probe is then decided over the context's compiled skeleton (compile.go),
// its conjuncts behind selector literals, or grounded through the
// context's grounding plan when the compiled form cannot express it. The
// validity cache and the knowledge store are keyed by f alone, exactly as
// without a fill.
func (c *Context) ValidFill(f logic.Formula, fill map[string]logic.Formula) bool {
	if fill == nil {
		return c.s.valid(f, c, nil)
	}
	return c.s.valid(f, c, &probeFill{m: fill})
}

// ValidSel is ValidFill for a probe given as a selection: preds[i] lists
// the interned predicates whose conjunction, in order, fills the skeleton's
// i-th unknown (in logic.Unknowns order), and f is the skeleton so filled.
// Nothing is interned per probe beyond f's cache lookup.
func (c *Context) ValidSel(f logic.Formula, preds [][]*logic.IFormula) bool {
	return c.s.valid(f, c, &probeFill{preds: preds})
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
// caller must decide from scratch; a one-shot context always answers.
func (c *Context) decide(ground logic.Formula) (satisfiable, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, false
	}
	defer c.account()
	c.ready()
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
// formula, or the context is dormant) and the caller must fall back to
// Solver.Valid.
//
// Each distinct predicate becomes one selector literal (its encoded root),
// probes are SolveAssuming calls over the selected literals, and the SAT
// core maps back to predicate identities through the selector table.
func (c *Context) Consistent(preds []logic.Formula) (consistent bool, core []logic.Formula, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, nil, false
	}
	defer c.account()
	c.ready()
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
// the Ackermann budget ran out and the context went dormant; a one-shot
// context decides with the pairs it asserted instead. The context's lock
// must be held.
func (c *Context) solve(assumps []sat.Lit, atomSets ...[]int) (satisfiable bool, core []sat.Lit, ok bool) {
	c.importLemmas()
	if !c.emitAckermann() && !c.oneShot {
		c.dead = true
		c.s.ctr.Add(stats.DormantContexts, 1)
		return false, nil, false
	}
	c.syncAtoms()
	c.switchCone(assumps...)
	if c.hook.lin != nil {
		c.hook.lin.SetProbe(c.probeAtomSet(atomSets, c.coneSets))
	}
	if c.sat.Stats.TheoryConflicts > 0 || c.sat.NumLearnts() > 0 {
		c.s.ctr.Add(stats.LemmaReuse, 1)
	}
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
// ctxMaxLemmas, and writes them behind to the knowledge store, named. They
// are clauses of the current SAT instance already, so imported moves past
// them. Lemmas are theory-valid facts regardless of how the probe ended, so
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
		c.s.opts.Store.AppendLemma(c.skel, store.Lemma{Lins: c.g.named(lem.atoms), Vals: lem.vals})
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
// context's atom space through its variable table. New atoms get SAT
// variables immediately; the following syncAtoms call folds them into the
// dense theory-check state.
func (c *Context) importLemmas() {
	for _, lem := range c.lemmas[c.imported:] {
		clause := make([]sat.Lit, len(lem.lins))
		usable := true
		for k, l := range lem.lins {
			pl, isLit := c.g.internLin(l).(pLit)
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

// gateGraph records a context's probe gates — the Tseitin gates encNode, the
// encoder and the compiled skeletons create for probe formulas — and the
// gate→child edges between them in an append-only int32 arena, dropped with
// the SAT instance by reset. A compiled skeleton's selector and env
// variables are probe gates too, without children: switched on only when a
// probe assumes them. Atoms, the constant and Ackermann gates are not probe
// gates: they stay switched on in every probe.
type gateGraph struct {
	// start[v] is the arena offset of gate v's entry — its gate-child count
	// followed by the children's variables — or -1 when v is not a probe
	// gate (atom variables interleave with gates). Offset 0 holds a shared
	// empty entry for gates whose children are all atoms.
	start []int32
	arena []int32
	// guards[v], when positive, is one plus the index in guarded of gate v's
	// guarded edges: children in the cone only when their guard variable
	// is assumed true.
	guards  []int32
	guarded [][]guardEdge
	// on lists the gates switched on for the current probe; trueAt[v] ==
	// epoch marks v assumed true in it.
	on     []int32
	trueAt []uint32
	epoch  uint32
}

// guardEdge is a compiled skeleton's guarded child: kid, whose encoding
// mentions atoms, belongs to a probe's cone only under an assumption that
// sets guard true (a selector, or an env literal).
type guardEdge struct {
	guard int32
	kid   sat.Lit
	atoms []int
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

// guard gives the gate v, already added, its guarded edges.
func (g *gateGraph) guard(v int, edges []guardEdge) {
	for len(g.guards) <= v {
		g.guards = append(g.guards, 0)
	}
	g.guarded = append(g.guarded, edges)
	g.guards[v] = int32(len(g.guarded))
}

func (g *gateGraph) isGate(v int) bool { return v < len(g.start) && g.start[v] >= 0 }

// switchCone switches off the previous probe's gates and switches on exactly
// the gates the given assumption literals reach, following a guarded edge
// only when its guard is assumed true; it collects the atom sets of the
// guarded children it reaches in c.coneSets. Soundness (DESIGN §10, "A
// probe decides only its cone"): a probe gate occurs positively only in its
// parents' definitional clauses, and a guarded child only in clauses its
// false guard satisfies, so setting every unreached gate false extends any
// assignment that satisfies the reached clauses to a model of every clause,
// learnt ones included — each probe's SAT and theory questions are the ones
// the all-on instance asks.
func (c *Context) switchCone(assumps ...sat.Lit) {
	g := &c.gates
	c.coneSets = c.coneSets[:0]
	if c.oneShot {
		return
	}
	for _, v := range g.on {
		c.sat.SetDecision(int(v), false)
	}
	g.on = g.on[:0]
	if len(g.guarded) > 0 {
		if n := c.sat.NumVars(); len(g.trueAt) < n {
			g.trueAt = append(g.trueAt, make([]uint32, n-len(g.trueAt))...)
		}
		if g.epoch++; g.epoch == 0 {
			clear(g.trueAt)
			g.epoch = 1
		}
		for _, a := range assumps {
			if !a.Neg() {
				g.trueAt[a.Var()] = g.epoch
			}
		}
	}
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
		v := g.on[i]
		at := g.start[v]
		for _, k := range g.arena[at+1 : at+1+g.arena[at]] {
			visit(int(k))
		}
		if int(v) < len(g.guards) && g.guards[v] > 0 {
			for _, e := range g.guarded[g.guards[v]-1] {
				if g.trueAt[e.guard] == g.epoch {
					visit(e.kid.Var())
					c.coneSets = append(c.coneSets, e.atoms)
				}
			}
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
// is exhausted (a one-shot context's per-formula budget could then diverge
// from the context's cumulative one); the occurrence dependency graph is
// complete even then, so a one-shot context can still decide with the
// pairs asserted so far.
func (c *Context) emitAckermann() bool {
	// isOcc and occDeps cover every variable, occurrence or not, for
	// probeAtomSet's walk.
	if n := c.g.vars.Len(); len(c.isOcc) < n {
		c.isOcc = append(c.isOcc, make([]bool, n-len(c.isOcc))...)
		c.occDeps = append(c.occDeps, make([][]int32, n-len(c.occDeps))...)
	}
	if c.g.nOccs == c.emittedAll {
		return true
	}
	// The constraints are asserted globally, so their gates stay switched on.
	gates := c.enc.gates
	c.enc.gates = nil
	defer func() { c.enc.gates = gates }()
	syms := make([]string, 0, len(c.g.occs))
	for s, os := range c.g.occs {
		if len(os) > c.emitted[s] {
			syms = append(syms, s)
		}
	}
	sort.Strings(syms)
	// Mark every new occurrence first: dependency extraction below must
	// recognize occurrence variables across symbols regardless of order.
	for _, s := range syms {
		os := c.g.occs[s]
		for j := c.emitted[s]; j < len(os); j++ {
			c.isOcc[os[j].id] = true
		}
	}
	for _, s := range syms {
		os := c.g.occs[s]
		for j := c.emitted[s]; j < len(os); j++ {
			var deps []int32
			for _, a := range os[j].args {
				for _, t := range c.g.formOf(a).T {
					if c.isOcc[t.V] {
						deps = append(deps, t.V)
					}
				}
			}
			c.occDeps[os[j].id] = deps
		}
	}
	for _, s := range syms {
		os := c.g.occs[s]
		for j := c.emitted[s]; j < len(os); j++ {
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
					a: os[i].id, b: os[j].id,
					atoms: sortedDedup(propAtoms(p, nil)),
				})
			}
		}
		c.emitted[s] = len(os)
	}
	c.emittedAll = c.g.nOccs
	return true
}

// ackPair is one asserted Ackermann constraint: the result variables of its
// two occurrences plus the sorted atoms of its clause. A pair joins a
// probe's atom subset only when both occurrences are reachable from the
// probe's atoms, mirroring the pair set a one-shot context builds for the
// probe's formula alone.
type ackPair struct {
	a, b  int32 // the occurrences' variable ids
	atoms []int
}

// syncAtoms extends the dense atom ↔ SAT-variable mapping and the persistent
// theory checker to cover every interned atom. Difference-only atom sets keep
// the incremental DiffChecker; the first atom outside the fragment switches
// the context to a LinChecker over every atom. Either is extended in place
// as the set grows (grounder indices are append-only). A one-shot context's
// LinChecker counts its eliminations as fm_scratch, a persistent one's as
// fm_incremental.
func (c *Context) syncAtoms() {
	h := &c.hook
	forms := c.g.forms
	if len(h.atomVars) == len(forms) {
		return
	}
	for i := len(h.atomVars); i < len(forms); i++ {
		v, ok := c.enc.atomVar[i]
		if !ok {
			// Interned but never encoded (constant-eliminated branch); it
			// still needs a variable so the model covers the full atom set.
			v = c.sat.NewVar()
			c.enc.atomVar[i] = v
		}
		h.atomVars = append(h.atomVars, v)
		if len(h.atomOf) <= v {
			h.atomOf = append(h.atomOf, make([]int32, v+1-len(h.atomOf))...)
		}
		h.atomOf[v] = int32(i + 1)
	}
	switch {
	case h.lin != nil:
		h.lin.Extend(forms[h.lin.Len():])
	case h.diff.Extend(forms[h.diff.Len():]):
		return
	default:
		// The atoms asserted so far go with the difference checker; the
		// final check reads every atom off the assignment from now on.
		h.diff, h.pushedAt = nil, nil
		elims := stats.FMIncremental
		if c.oneShot {
			elims = stats.FMScratch
		}
		h.lin = lia.NewLinChecker(c.g.vars, forms, &c.s.ctr, elims)
	}
	h.assign = make([]bool, len(h.atomVars))
}

// probeAtomSet computes the current probe's relevant atom subset into the
// context's reusable buffer, sorted ascending: the union of the given
// encoding atom sets (both lists), plus the clauses of every Ackermann pair
// whose occurrences are reachable from those atoms (an occurrence is
// reachable when its result variable appears in a probe atom, or in the
// arguments of a reachable occurrence). This mirrors the per-probe systems
// a one-shot context checks — its grounder only ever holds one formula's
// atoms and occurrence pairs.
func (c *Context) probeAtomSet(sets, more [][]int) []int {
	raw := c.probeAtoms[:0]
	for _, s := range sets {
		raw = append(raw, s...)
	}
	for _, s := range more {
		raw = append(raw, s...)
	}
	if len(c.ackPairs) > 0 {
		if len(c.reach) < len(c.isOcc) {
			c.reach = append(c.reach, make([]uint32, len(c.isOcc)-len(c.reach))...)
		}
		if c.epoch++; c.epoch == 0 {
			clear(c.reach)
			c.epoch = 1
		}
		queue := c.queue[:0]
		visit := func(v int32) {
			if c.isOcc[v] && c.reach[v] != c.epoch {
				c.reach[v] = c.epoch
				queue = append(queue, v)
			}
		}
		for _, ai := range raw {
			for _, t := range c.g.forms[ai].T {
				visit(t.V)
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, d := range c.occDeps[v] {
				visit(d)
			}
		}
		c.queue = queue
		for i := range c.ackPairs {
			pr := &c.ackPairs[i]
			if c.reach[pr.a] == c.epoch && c.reach[pr.b] == c.epoch {
				raw = append(raw, pr.atoms...)
			}
		}
	}
	c.probeAtoms = sortedDedup(raw)
	return c.probeAtoms
}
