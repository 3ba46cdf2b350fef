package smt

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/lia"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/store"
)

// Context is a persistent incremental solving context, keyed by a compiled
// VC skeleton: the iterative algorithms decide thousands of near-identical
// queries — the same skeleton with a different candidate predicate fill each
// time — and a Context keeps one SAT instance plus theory state alive across
// all of them instead of rebuilding both per probe.
//
// What persists, and why it is sound to share it:
//
//   - Atom interning (grounder): an inequality atom means the same thing in
//     every probe, so atoms keep their SAT variable across probes.
//   - Encoded skeleton structure (encMemo): the one-sided Tseitin encoding of
//     a ground subformula never forces anything unless its root literal is
//     implied, so clauses from earlier probes are vacuously satisfiable in
//     later ones — each probe asserts only its own root, as an assumption.
//   - Theory lemmas (DPLL(T) blocking clauses) and Ackermann constraints:
//     both are theory-valid facts about the atoms, true in every integer
//     model, so asserting them globally can never flip a verdict.
//   - Learnt clauses: resolvents of the above, bounded by the SAT solver's
//     reduceDB.
//
// Verdict agreement with the from-scratch path holds because both sides run
// the same theory procedures: Bellman–Ford (sound and complete over the
// integers) while every interned atom is a difference constraint, and the
// same Fourier–Motzkin engine — persisted as a lia.LinChecker with a
// conflict-cube store — from the first general linear atom on. The one
// asymmetry is the FM derived-constraint cap: the context checks its
// cumulative atom set where the fresh path checks per-probe sets, so the
// context can hit the cap on workloads where the fresh path would not.
// Cap hits are conservative ("satisfiable", so Valid reports false), are
// counted (Solver.NumFMCapHits, stats fm_cap_hits), and never accept a bad
// invariant. The only remaining dormancy trigger is Ackermann pair-budget
// exhaustion, where the context's cumulative budget could diverge from the
// fresh path's per-probe one.
type Context struct {
	s     *Solver
	group *ctxGroup
	mu    sync.Mutex

	// dead marks the context dormant (the Ackermann pair budget was
	// exhausted); every later probe falls back to the parent solver's
	// from-scratch path.
	dead bool

	// imported is how many lemmas of the group's exchange this lane has
	// already asserted locally; reset together with the SAT instance.
	imported int

	sat *sat.Solver
	g   *grounder
	enc *encoder

	// encMemo maps an interned ground (sub)formula to its encoded literal:
	// repeated skeleton structure costs one pointer-keyed map probe per
	// probe instead of a full ground-and-encode pass.
	encMemo map[*logic.IFormula]sat.Lit

	// selOf memoizes the selector literal of an interned predicate for
	// Consistent probes; selBad marks predicates the context cannot encode
	// exactly (quantified after normalization).
	selOf  map[*logic.IFormula]sat.Lit
	selBad map[*logic.IFormula]bool

	// encAtoms / selAtoms record, per interned ground node / predicate, the
	// sorted grounder atom indices its encoding mentions. ackPairs records
	// each asserted Ackermann pair — the result variables of its two
	// occurrences plus the atoms of its clause — and occName/occDeps the
	// occurrence-variable dependency graph (an occurrence's arguments may
	// mention nested occurrence variables). Together they give each probe
	// its relevant atom subset, which the general-LIA checker is narrowed
	// to (LinChecker.SetProbe): the context's cumulative atom set only
	// grows, and eliminating over atoms a probe does not constrain would
	// make every check more expensive than the from-scratch path.
	encAtoms   map[*logic.IFormula][]int
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

	// Dense theory-check state over the context's full atom set: atomVars[i]
	// is the SAT variable of grounder atom i, theory the preprocessed
	// checker over all atoms — a DiffChecker (rebuilt whenever the set
	// grows) while every atom is a difference constraint, a LinChecker
	// (extended in place, conflict cubes surviving growth) from the first
	// general linear atom on.
	atomVars []int
	theory   lia.Checker
	lin      *lia.LinChecker // non-nil iff theory is the general-LIA checker
	assign   []bool
	lits     []sat.Lit

	lemmas int // persisted theory lemmas (DPLL(T) blocking clauses)

	// units is the lane's SAT size (variables + clauses + learnts) as last
	// published to the registry's budget accounting by account.
	units int64
}

const (
	// ctxMaxLearnts bounds the persistent SAT instance's learnt database
	// (activity-based reduceDB kicks in beyond it).
	ctxMaxLearnts = 4000
	// ctxMaxVars recycles a context once probe-local gate variables
	// accumulate past this bound; a recycled context restarts empty, which
	// is always sound (it is exactly a fresh context).
	ctxMaxVars = 200000
	// ctxMaxLanes bounds the per-skeleton lane pool: under contention a
	// probe prefers creating a sibling lane (own SAT instance and grounder,
	// shared lemma exchange) over the from-scratch path, up to this many.
	ctxMaxLanes = 8
	// ctxMaxExchanged bounds one group's lemma exchange; beyond it lanes
	// stop publishing (imports of already-published lemmas continue).
	ctxMaxExchanged = 4096
)

// ctxGroup is the shared state of all lanes solving one skeleton: the lane
// pool itself and the cross-lane theory-lemma exchange. Lemmas travel as
// (lia.Lin, value) vectors — grounder-independent facts — and each lane
// re-interns them into its own atom space, so lanes never share mutable
// solver state and a lemma learned by one worker prunes every other worker's
// search. All lemmas are theory-valid, so importing them never flips a
// verdict.
type ctxGroup struct {
	s *Solver

	// skel is the skeleton's portable identity (store.FormulaKey), set when
	// a knowledge store is attached. It keys the group's lemmas on disk:
	// the exchange is seeded from the store at group creation, and lemmas
	// learned by any lane are written behind it. Empty when no store is
	// attached (or for standalone consistency contexts, whose vocabulary
	// has no skeleton identity).
	skel string

	mu    sync.Mutex
	lanes []*Context

	// Registry bookkeeping, guarded by the solver's ctxRegistry lock: the
	// skeleton the group is registered under (nil for standalone
	// contexts), its LRU element (nil once evicted, or never registered)
	// and its SAT units summed over lanes.
	key   *logic.IFormula
	elem  *list.Element
	units int64

	exch struct {
		mu     sync.RWMutex
		lemmas []theoryLemma
	}
}

// theoryLemma is one theory conflict in grounder-independent form: the
// conjunction of (lin_i ≤ 0) == val_i over the listed atoms is
// integer-infeasible.
type theoryLemma struct {
	lins []lia.Lin
	vals []bool
}

// snapshotLanes returns the current lane slice; lanes are append-only, so the
// prefix is stable and safe to scan without the group lock.
func (g *ctxGroup) snapshotLanes() []*Context {
	g.mu.Lock()
	lanes := g.lanes
	g.mu.Unlock()
	return lanes
}

// addLane creates a sibling lane when the pool and the solver-wide budget
// allow it, returning nil otherwise.
func (g *ctxGroup) addLane() *Context {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.lanes) >= ctxMaxLanes {
		return nil
	}
	c := &Context{s: g.s, group: g}
	c.reset()
	g.s.ctxCreated.Add(1)
	g.lanes = append(g.lanes, c)
	return c
}

// multi reports whether the group ever grew a second lane; single-lane groups
// skip lemma publication entirely (nobody would import).
func (g *ctxGroup) multi() bool {
	g.mu.Lock()
	n := len(g.lanes)
	g.mu.Unlock()
	return n > 1
}

// publish appends freshly learned theory lemmas to the exchange, up to the
// group budget, and writes them behind to the knowledge store when the group
// has a skeleton identity. Lemmas are theory-valid facts regardless of how
// the probe that found them ended, so publication needs no Stop guard.
func (g *ctxGroup) publish(lems []theoryLemma) {
	if len(lems) == 0 {
		return
	}
	g.exch.mu.Lock()
	room := ctxMaxExchanged - len(g.exch.lemmas)
	if room > 0 {
		if len(lems) > room {
			lems = lems[:room]
		}
		g.exch.lemmas = append(g.exch.lemmas, lems...)
	}
	g.exch.mu.Unlock()
	if st := g.s.opts.Store; st != nil && g.skel != "" {
		for _, lem := range lems {
			st.AppendLemma(g.skel, store.Lemma{Lins: lem.lins, Vals: lem.vals})
		}
	}
}

func (s *Solver) newContext() *Context { return s.newContextKeyed("") }

// newContextKeyed creates a context group, seeding its lemma exchange from
// the knowledge store when the skeleton has persisted lemmas: every lane
// (including the first) then asserts them through the ordinary importLemmas
// path on its first probe, re-interned into its own atom space exactly like
// lemmas from a sibling lane.
func (s *Solver) newContextKeyed(skel string) *Context {
	s.ctxCreated.Add(1)
	g := &ctxGroup{s: s, skel: skel}
	if st := s.opts.Store; st != nil && skel != "" {
		warm := st.Lemmas(skel)
		if len(warm) > ctxMaxExchanged {
			warm = warm[:ctxMaxExchanged]
		}
		for _, w := range warm {
			g.exch.lemmas = append(g.exch.lemmas, theoryLemma{lins: w.Lins, vals: w.Vals})
		}
		s.lemmasWarm.Add(int64(len(warm)))
	}
	c := &Context{s: s, group: g}
	c.reset()
	g.lanes = []*Context{c}
	return c
}

func (c *Context) reset() {
	c.sat = sat.New()
	c.sat.MaxLearnts = ctxMaxLearnts
	c.g = newGrounder()
	c.enc = &encoder{s: c.sat, atomVar: map[int]int{}}
	c.encMemo = map[*logic.IFormula]sat.Lit{}
	c.selOf = map[*logic.IFormula]sat.Lit{}
	c.selBad = map[*logic.IFormula]bool{}
	c.encAtoms = map[*logic.IFormula][]int{}
	c.selAtoms = map[*logic.IFormula][]int{}
	c.ackPairs = nil
	c.occName = map[string]bool{}
	c.occDeps = map[string][]string{}
	c.probeAtoms = nil
	c.emitted = map[string]int{}
	c.pairCount = 0
	c.atomVars = nil
	c.theory = nil
	c.lin = nil
	c.assign = nil
	c.lits = nil
	c.lemmas = 0
	c.imported = 0
}

// Valid mirrors Solver.Valid — same memo table, same trivial short-circuits,
// same conservative treatment of Stop — but decides cache misses through the
// persistent context: the probe's ground formula is encoded into the shared
// SAT instance and solved under a single assumption literal, reusing learnt
// clauses, theory lemmas, Ackermann constraints, and the difference-fragment
// preprocessing of all earlier probes. Falls back to the from-scratch
// decision when the context cannot answer exactly (dormant context or lock
// contention); verdicts are identical either way.
func (c *Context) Valid(f logic.Formula) bool {
	if v, ok := logic.TrivialVerdict(f); ok {
		return v
	}
	n := logic.Intern(f)
	e, hit := c.s.cache.lookupOrClaim(n)
	if hit {
		<-e.done
		c.s.cacheHits.Add(1)
		return e.val
	}
	var skey string
	if c.s.opts.Store != nil {
		skey = store.FormulaKey(n.Formula())
		if v, ok := c.s.opts.Store.Verdict(skey); ok {
			c.s.storeHits.Add(1)
			c.s.stats.RecordStoreLookup(true)
			e.settle(v)
			return v
		}
		c.s.stats.RecordStoreLookup(false)
	}
	start := time.Now()
	var v bool
	sn := n.Simplified()
	if b, ok := sn.Formula().(logic.Bool); ok {
		v = b.Val
		c.s.queries.Add(1)
	} else if ground, done, gv := c.s.groundForm(sn.Negated()); done {
		v = !gv
		c.s.queries.Add(1)
	} else if satisfiable, ok := c.tryDecide(ground); ok {
		v = !satisfiable
		c.s.ctxProbes.Add(1)
	} else {
		v = !c.s.decideGround(ground)
		c.s.queries.Add(1)
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

// tryDecide decides satisfiability of a ground formula incrementally.
// ok=false means no lane of the group could answer exactly and the caller
// must take the from-scratch path. Under lock contention the probe walks the
// group's lane pool and, when every lane is busy, creates a sibling lane —
// scaling incremental solving across workers instead of degrading to
// from-scratch decisions.
func (c *Context) tryDecide(ground logic.Formula) (satisfiable, ok bool) {
	for _, lane := range c.group.snapshotLanes() {
		if !lane.mu.TryLock() {
			continue
		}
		v, ok := lane.decideLocked(ground)
		lane.mu.Unlock()
		return v, ok
	}
	if lane := c.group.addLane(); lane != nil {
		lane.mu.Lock()
		v, ok := lane.decideLocked(ground)
		lane.mu.Unlock()
		return v, ok
	}
	return false, false
}

// decideLocked is tryDecide's per-lane body; the lane's lock must be held.
func (c *Context) decideLocked(ground logic.Formula) (satisfiable, ok bool) {
	defer c.account()
	if c.dead {
		return false, false
	}
	if c.sat.NumVars() > ctxMaxVars {
		c.reset()
	}
	root, rootAtoms := c.encNode(ground)
	c.importLemmas()
	if !c.emitAckermann() {
		c.dead = true
		c.s.ctxDormant.Add(1)
		return false, false
	}
	c.syncAtoms()
	if c.lin != nil {
		c.lin.SetProbe(c.probeAtomSet(rootAtoms))
	}
	if c.lemmas > 0 || c.sat.NumLearnts() > 0 {
		c.s.lemmaReuse.Add(1)
	}
	var pub []theoryLemma
	v, _ := c.probeLoop(&pub, root)
	c.group.publish(pub)
	return v, true
}

// account publishes the lane's change in SAT size since its last probe to
// the registry's budget accounting (registered groups only; a standalone
// consistency context is bounded by ctxMaxVars alone). The lane's lock must
// be held.
func (c *Context) account() {
	if c.group.key == nil {
		return
	}
	n := int64(c.sat.NumVars() + c.sat.NumClauses() + c.sat.NumLearnts())
	if d := n - c.units; d != 0 {
		c.units = n
		c.s.reg.grow(c.group, d)
	}
}

// importLemmas asserts every exchange lemma this lane has not seen yet,
// re-interning each (lin, value) vector into the lane's own atom space. New
// atoms get SAT variables immediately; the following syncAtoms call folds
// them into the dense theory-check state.
func (c *Context) importLemmas() {
	g := c.group
	g.exch.mu.RLock()
	lems := g.exch.lemmas
	g.exch.mu.RUnlock()
	if c.imported >= len(lems) {
		return
	}
	for _, lem := range lems[c.imported:] {
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
			c.s.lemmasShared.Add(1)
		}
	}
	c.imported = len(lems)
}

// Consistent reports whether the conjunction of preds has a model. When it
// does not, core is a subset of preds whose conjunction is already
// unsatisfiable — and since conjoining more predicates only strengthens the
// formula, any superset of the core is unsatisfiable too, which is what lets
// the lattice search kill whole sublattices per core. ok=false means the
// context could not answer exactly (a predicate normalizes to a quantified
// formula, dormant context, or lock contention) and the caller must fall
// back to the from-scratch path.
//
// Each distinct predicate becomes one selector literal (its encoded root),
// probes are SolveAssuming calls over the selected literals, and the SAT
// core maps back to predicate identities through the selector table.
func (c *Context) Consistent(preds []logic.Formula) (consistent bool, core []logic.Formula, ok bool) {
	for _, lane := range c.group.snapshotLanes() {
		if !lane.mu.TryLock() {
			continue
		}
		consistent, core, ok = lane.consistentLocked(preds)
		lane.mu.Unlock()
		return consistent, core, ok
	}
	if lane := c.group.addLane(); lane != nil {
		lane.mu.Lock()
		consistent, core, ok = lane.consistentLocked(preds)
		lane.mu.Unlock()
		return consistent, core, ok
	}
	return false, nil, false
}

// consistentLocked is Consistent's per-lane body; the lane's lock must be held.
func (c *Context) consistentLocked(preds []logic.Formula) (consistent bool, core []logic.Formula, ok bool) {
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
	c.importLemmas()
	if !c.emitAckermann() {
		c.dead = true
		c.s.ctxDormant.Add(1)
		return false, nil, false
	}
	c.syncAtoms()
	if c.lin != nil {
		c.lin.SetProbe(c.probeAtomSet(selSets...))
	}
	if c.lemmas > 0 || c.sat.NumLearnts() > 0 {
		c.s.lemmaReuse.Add(1)
	}
	c.s.ctxProbes.Add(1)
	var pub []theoryLemma
	v, satCore := c.probeLoop(&pub, assumps...)
	c.group.publish(pub)
	if v {
		return true, nil, true
	}
	for _, l := range satCore {
		if p, isSel := owner[l]; isSel {
			core = append(core, p)
		}
	}
	return false, core, true
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

// encNode encodes a ground formula into the persistent instance (one-sided
// Tseitin, as in the from-scratch encoder) and memoizes, per interned node,
// both the encoded literal and the sorted grounder atom indices the encoding
// mentions — the atom sets compose bottom-up and give each probe its
// relevant atom subset without re-walking memoized structure.
func (c *Context) encNode(f logic.Formula) (sat.Lit, []int) {
	n := logic.Intern(f)
	if l, ok := c.encMemo[n]; ok {
		return l, c.encAtoms[n]
	}
	var l sat.Lit
	var atoms []int
	switch f := f.(type) {
	case logic.Bool:
		l = c.constLit(f.Val)
	case logic.Atom:
		p := c.g.atomProp(f)
		l = c.enc.encode(p)
		atoms = propAtoms(p, nil)
	case logic.Not:
		a, ok := f.F.(logic.Atom)
		if !ok {
			panic("smt: non-atomic negation in ground formula")
		}
		p := c.g.atomProp(logic.Atom{Op: a.Op.Negate(), X: a.X, Y: a.Y})
		l = c.enc.encode(p)
		atoms = propAtoms(p, nil)
	case logic.Implies:
		a, ok1 := f.A.(logic.Atom)
		b, ok2 := f.B.(logic.Atom)
		if !ok1 || !ok2 {
			panic("smt: implication survived NNF")
		}
		pa := c.g.atomProp(logic.Atom{Op: a.Op.Negate(), X: a.X, Y: a.Y})
		pb := c.g.atomProp(b)
		na := c.enc.encode(pa)
		nb := c.enc.encode(pb)
		gl := sat.MkLit(c.sat.NewVar(), false)
		c.sat.AddClause(gl.Not(), na, nb)
		l = gl
		atoms = propAtoms(pb, propAtoms(pa, nil))
	case logic.And:
		children := make([]sat.Lit, len(f.Fs))
		for i, h := range f.Fs {
			var ca []int
			children[i], ca = c.encNode(h)
			atoms = append(atoms, ca...)
		}
		gl := sat.MkLit(c.sat.NewVar(), false)
		for _, cl := range children {
			c.sat.AddClause(gl.Not(), cl)
		}
		l = gl
	case logic.Or:
		clause := make([]sat.Lit, 1, len(f.Fs)+1)
		for _, h := range f.Fs {
			cl, ca := c.encNode(h)
			clause = append(clause, cl)
			atoms = append(atoms, ca...)
		}
		gl := sat.MkLit(c.sat.NewVar(), false)
		clause[0] = gl.Not()
		c.sat.AddClause(clause...)
		l = gl
	default:
		panic(fmt.Sprintf("smt: unexpected ground formula %T (%s)", f, f))
	}
	atoms = sortedDedup(atoms)
	c.encMemo[n] = l
	c.encAtoms[n] = atoms
	return l, atoms
}

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
	// c.theory must exist even when the grounder produced no linear atoms at
	// all (every predicate constant-folded away): probeLoop still consults
	// it, and 0 == 0 atom counts must not skip its construction.
	if c.theory != nil && len(c.atomVars) == len(c.g.lins) {
		return
	}
	for i := len(c.atomVars); i < len(c.g.lins); i++ {
		v, ok := c.enc.atomVar[i]
		if !ok {
			// Interned but never encoded (constant-eliminated branch); it
			// still needs a variable so the model covers the full atom set.
			v = c.sat.NewVar()
			c.enc.atomVar[i] = v
		}
		c.atomVars = append(c.atomVars, v)
	}
	switch {
	case c.lin != nil:
		c.lin.Extend(c.g.lins[c.lin.Len():])
	default:
		if d, ok := lia.NewDiffChecker(c.g.lins); ok {
			c.theory = d
		} else {
			c.lin = lia.NewLinChecker(c.g.lins, &c.s.fmCounters)
			c.theory = c.lin
		}
	}
	c.assign = make([]bool, len(c.atomVars))
	c.lits = make([]sat.Lit, len(c.atomVars))
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

// probeLoop runs the DPLL(T) loop under the given assumptions against the
// persistent instance: SAT model → exact theory check over the full atom set
// → blocking lemma, until a theory-consistent model or propositional unsat.
// Lemmas persist — they are valid facts about the atoms, shared by every
// later probe. When pub points at a collection (the group has sibling lanes),
// each learned lemma is also recorded in grounder-independent form for the
// exchange. On unsat the failed-assumption core is returned.
func (c *Context) probeLoop(pub *[]theoryLemma, assumps ...sat.Lit) (satisfiable bool, core []sat.Lit) {
	// Collect grounder-independent lemma forms when anyone would consume
	// them: a sibling lane, or the knowledge store (which persists them for
	// next lifetime's lanes even in a single-lane group).
	share := pub != nil && (c.group.multi() || (c.s.opts.Store != nil && c.group.skel != ""))
	for iter := 0; iter < c.s.opts.MaxTheoryIterations; iter++ {
		if c.s.opts.Stop != nil && c.s.opts.Stop() {
			return true, nil // conservative, as in decideGround
		}
		st, unsatCore := c.sat.SolveAssuming(assumps...)
		if st == sat.Unsat {
			return false, unsatCore
		}
		for k, v := range c.atomVars {
			val := c.sat.Value(v)
			c.assign[k] = val
			c.lits[k] = sat.MkLit(v, !val)
		}
		res := c.theory.Check(c.assign)
		if res.Sat {
			if res.Truncated {
				// The FM cap produced a conservative answer; surface it so
				// benchtab and /v1/stats can report the probe as undecided
				// rather than silently "consistent".
				c.s.stats.RecordFMCapHit()
			}
			return true, nil
		}
		blocking := make([]sat.Lit, 0, len(res.Conflict))
		for _, ci := range res.Conflict {
			blocking = append(blocking, c.lits[ci].Not())
		}
		if share {
			lem := theoryLemma{
				lins: make([]lia.Lin, len(res.Conflict)),
				vals: make([]bool, len(res.Conflict)),
			}
			for k, ci := range res.Conflict {
				lem.lins[k] = c.g.lins[ci]
				lem.vals[k] = c.assign[ci]
			}
			*pub = append(*pub, lem)
		}
		if !c.sat.AddClause(blocking...) {
			return false, nil
		}
		c.lemmas++
	}
	// Resource bound hit: conservative "satisfiable", as in decideGround.
	return true, nil
}
