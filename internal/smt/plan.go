package smt

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/logic"
)

// Grounding plans.
//
// Every cache-missing probe is grounded before it is decided: the negated
// formula is normalized (array equalities become quantified element
// equalities, NNF, bound-variable standardization, skolemization), its
// universals are instantiated over candidate terms for up to InstRounds
// rounds, and the result is simplified. The probes of one context share a
// VC skeleton and differ only in the predicates filling its unknowns, so a
// groundPlan compiles the skeleton once and grounds each probe from memoized
// parts:
//
//   - realize: the skeleton's hole-free subtrees are simplified once; a
//     probe re-runs Simplify's rules (logic.Junction) only along the spine
//     from the root to the holes, over the simplified fill.
//   - normalize: one fused pass (normalizeFused) does the work of NNF,
//     standardization and skolemization. Each memoizable unit — a static
//     subtree, or one predicate of a fill — is normalized once per polarity,
//     namer position and binding scope.
//   - ground: each unit's candidate-term contribution is computed once. Each
//     quantifier-free leaf is simplified once. Each instance of a leaf under
//     a candidate substitution is built and simplified once. A probe unions
//     the contributions into its candidate sets and rebuilds only the
//     junctions above the leaves.
//
// Every pass of the multi-pass pipeline is a structural map whose results
// compose through the same smart constructors (Conj, Disj, All, Neg, Imp)
// and Simplify's junction rule, and the fresh-name counters advance in the
// same depth-first order. So the plan's ground formula is structurally equal
// to the multi-pass one for every probe. The interned result is therefore
// the same node, and verdicts, counters and replay identity are unchanged.
// oracle_test.go keeps the multi-pass pipeline, and the differential sweep
// compares the two on every probe.
//
// A plan is built lazily, on the first probe of a registered context group
// that reaches grounding, and dies with the group. Its memos are guarded by
// one mutex, because probes ground before they take a lane lock. Together
// they hold at most planMemoCap entries. Past that, parts are computed
// without being stored.

// planMemoCap bounds the entries one plan memoizes: fills, normalized
// units and leaf instances. The largest context of the examples/ problems
// and the DefaultSuite cells holds about 800.
const planMemoCap = 4096

// normalizeForSolving is the solver-side preprocessing chain, memoized per
// interned formula via IFormula.Normalized: Simplify, then the fused
// normalization of the result at positive polarity.
func normalizeForSolving(f logic.Formula) logic.Formula {
	f = logic.Simplify(f)
	if b, ok := f.(logic.Bool); ok {
		return b
	}
	return newScope().normalizeFused(f, false)
}

// nscope is the binding state of the fused normalization at one position:
// the replacement of each source-bound variable in scope (its standardized
// name under a universal, its skolem term under an existential), the
// standardized universals in scope (the arguments of skolem functions), and
// how many @b and @sk names were handed out before this position.
type nscope struct {
	ren   map[string]logic.Term
	univ  []string
	b, sk int
	// sig identifies ren and univ for memo keys. It is maintained only by
	// the plan's spine walk. Inside one unit the bindings are that unit's
	// own, and no memo is consulted.
	sig string
}

func newScope() *nscope { return &nscope{ren: map[string]logic.Term{}} }

// normalizeFused returns the skolemized, standardized negation normal form
// of f (negated when neg is set), the same formula the pass-by-pass chain
// NNF → StandardizeApart(@b) → skolemize(@sk) produces. RewriteArrayEq's
// quantifier is folded in too, since standardization renames its variable
// anyway. f must be simplified and unknown-free.
func (sc *nscope) normalizeFused(f logic.Formula, neg bool) logic.Formula {
	switch f := f.(type) {
	case logic.Atom:
		op := f.Op
		if neg {
			op = op.Negate()
		}
		return logic.Atom{Op: op, X: logic.SubstituteTerm(f.X, sc.ren, nil), Y: logic.SubstituteTerm(f.Y, sc.ren, nil)}
	case logic.Bool:
		return logic.Bool{Val: f.Val != neg}
	case logic.Not:
		return sc.normalizeFused(f.F, !neg)
	case logic.And:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = sc.normalizeFused(g, neg)
		}
		if neg {
			return logic.Disj(out...)
		}
		return logic.Conj(out...)
	case logic.Or:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = sc.normalizeFused(g, neg)
		}
		if neg {
			return logic.Conj(out...)
		}
		return logic.Disj(out...)
	case logic.Implies:
		// a ⇒ b  ≡  ¬a ∨ b
		if neg {
			return logic.Conj(sc.normalizeFused(f.A, false), sc.normalizeFused(f.B, true))
		}
		return logic.Disj(sc.normalizeFused(f.A, true), sc.normalizeFused(f.B, false))
	case logic.Forall:
		return sc.quant(f.Vars, f.Body, neg, neg)
	case logic.Exists:
		return sc.quant(f.Vars, f.Body, neg, !neg)
	case logic.AEq:
		// L = R  ≡  ∀k: L[k] = R[k]. The variable's source name never
		// surfaces: standardization renames it like any other.
		k := logic.V(aeqVar)
		return sc.quant([]string{aeqVar}, logic.EqF(logic.Sel(f.L, k), logic.Sel(f.R, k)), neg, neg)
	}
	panic("smt: unexpected formula in normalization: " + f.String())
}

// aeqVar names the element variable of a rewritten array equality before
// standardization renames it; source programs cannot spell it.
const aeqVar = "@q"

// quant normalizes a quantifier whose NNF is existential when exists is set:
// its variables take the next @b names, and an existential's are then
// replaced by skolem terms over the universals in scope.
func (sc *nscope) quant(vars []string, body logic.Formula, neg, exists bool) logic.Formula {
	names, undo := sc.bind(vars, exists)
	out := sc.normalizeFused(body, neg)
	sc.unbind(vars, exists, undo)
	if exists {
		return out
	}
	return logic.All(names, out)
}

// bind hands out the @b names of one quantifier's variables and binds each
// variable to its replacement, returning the names and the shadowed
// bindings for unbind.
func (sc *nscope) bind(vars []string, exists bool) (names []string, undo []logic.Term) {
	names = make([]string, len(vars))
	for i := range vars {
		sc.b++
		names[i] = "@b" + strconv.Itoa(sc.b)
	}
	undo = make([]logic.Term, len(vars))
	for i, v := range vars {
		undo[i] = sc.ren[v]
		if !exists {
			sc.ren[v] = logic.V(names[i])
			continue
		}
		sc.sk++
		name := "@sk" + strconv.Itoa(sc.sk)
		if len(sc.univ) == 0 {
			sc.ren[v] = logic.V(name)
			continue
		}
		args := make([]logic.Term, len(sc.univ))
		for j, u := range sc.univ {
			args[j] = logic.V(u)
		}
		sc.ren[v] = logic.App(name, args...)
	}
	if !exists {
		sc.univ = append(sc.univ, names...)
	}
	return names, undo
}

// unbind restores the bindings bind shadowed, newest first.
func (sc *nscope) unbind(vars []string, exists bool, undo []logic.Term) {
	for i := len(vars) - 1; i >= 0; i-- {
		if undo[i] == nil {
			delete(sc.ren, vars[i])
		} else {
			sc.ren[vars[i]] = undo[i]
		}
	}
	if !exists {
		sc.univ = sc.univ[:len(sc.univ)-len(vars)]
	}
}

// piece is a simplified, unknown-free formula that the plan normalizes as
// one unit: a static subtree of the skeleton, or a fill predicate.
type piece struct {
	f logic.Formula
	n *logic.IFormula // memo identity
	// parts are f's operands when f is a conjunction or disjunction, so a
	// junction can splice them as Simplify flattens nested operands.
	parts []*piece
	// split makes the normalizer descend into parts. Fills are split, so
	// that memo entries are per predicate rather than per conjunction.
	split bool
	sv    *sval // the piece as a realized value
}

func newPiece(n *logic.IFormula, split bool) *piece {
	p := &piece{f: n.Formula(), n: n, split: split}
	defer p.initVal()
	var fs []logic.Formula
	switch f := p.f.(type) {
	case logic.And:
		fs = f.Fs
	case logic.Or:
		fs = f.Fs
	}
	for _, g := range fs {
		q := &piece{f: g, n: logic.Intern(g)}
		q.initVal()
		p.parts = append(p.parts, q)
	}
	return p
}

// pnode is one node of the compiled skeleton: a static (hole-free) subtree,
// a hole, or a spine connective above at least one hole.
type pnode struct {
	op   pop
	kids []*pnode
	vars []string
	hole string
	st   *piece // kStatic: the simplified subtree
}

type pop uint8

const (
	kStatic pop = iota
	kHole
	kAnd
	kOr
	kNot
	kImp
	kAll
	kAny
)

// sval is a probe's simplified formula over the compiled skeleton: a
// constant, a piece, or a spine connective over svals.
type sval struct {
	op   sop
	f    logic.Formula // the simplified formula this sval stands for
	h    uint64        // HashFormula(f), composed from the operands' hashes
	p    *piece        // sPiece
	kids []*sval
	vars []string
}

type sop uint8

const (
	sConst sop = iota
	sPiece
	sAnd
	sOr
	sNot
	sImp
	sAll
	sAny
)

// gnode is a normalized formula prepared for instantiation: a
// quantifier-free leaf, a junction, or a universal. Nodes compiled from a
// memoized unit are kept across probes (keep) and memoize their leaf
// simplification, leaf instances and triggers. Spine nodes are rebuilt per
// probe.
type gnode struct {
	op    gop
	f     logic.Formula
	kids  []*gnode
	vars  []string // gAll
	body  *gnode   // gAll
	quant bool     // a universal occurs at or below this node
	keep  bool

	simp *gres                // gLeaf: Simplify(f), once computed
	inst map[string]*instLeaf // gLeaf: instances by substitution key
	// trigs caches, per variable list, the triggers of f's body (gAll) or
	// of f itself (a unit inside a universal rebuilt per probe).
	trigs map[string]map[string][]trigger
}

type gop uint8

const (
	gLeaf gop = iota
	gAnd
	gOr
	gAll
)

// unitEntry is one normalized unit: its instantiation-ready form, the names
// it consumed, and its contribution to the candidate sets.
type unitEntry struct {
	g       *gnode
	db, dsk int
	fb      []keyedTerm
	arr     []famTerm
}

// instLeaf is one quantifier-free leaf under one candidate substitution: its
// simplified form and the index terms the unsimplified instance adds to the
// next round's candidate sets.
type instLeaf struct {
	simp gres
	fb   []keyedTerm
	arr  []famTerm
}

// gres is a simplified ground formula with its HashFormula and, when it is
// a conjunction or disjunction, its operands' hashes: what a junction needs
// to fold it in without walking it.
type gres struct {
	f     logic.Formula
	h     uint64
	parts []uint64
}

func newGres(f logic.Formula) gres {
	n := 0
	return gres{f: f, h: logic.HashFormula(f, &n), parts: logic.OperandHashes(f)}
}

func junctionGres(j *logic.Junction) gres {
	f, h, parts := j.Result()
	return gres{f: f, h: h, parts: parts}
}

type keyedTerm struct {
	key string
	t   logic.Term
	cx  int // termComplexity(t)
}

type famKey struct{ fam, key string }

type famTerm struct {
	fam, key string
	t        logic.Term
}

type unitKey struct {
	n     *logic.IFormula
	neg   bool
	b, sk int
	scope string
}

// groundPlan is one context group's compiled skeleton plus its memos.
type groundPlan struct {
	s    *Solver
	root *pnode

	mu      sync.Mutex
	units   map[unitKey]*unitEntry
	fills   map[*logic.IFormula]*piece
	entries int
}

// newGroundPlan compiles skel, a formula whose unknowns are the probes'
// holes.
func newGroundPlan(s *Solver, skel logic.Formula) *groundPlan {
	pl := &groundPlan{s: s, units: map[unitKey]*unitEntry{}, fills: map[*logic.IFormula]*piece{}}
	pl.root = compileSkeleton(skel)
	return pl
}

func compileSkeleton(f logic.Formula) *pnode {
	if len(logic.Unknowns(f)) == 0 {
		return &pnode{op: kStatic, st: newPiece(logic.Intern(logic.Simplify(f)), false)}
	}
	switch f := f.(type) {
	case logic.Unknown:
		return &pnode{op: kHole, hole: f.Name}
	case logic.Not:
		return &pnode{op: kNot, kids: []*pnode{compileSkeleton(f.F)}}
	case logic.And:
		return &pnode{op: kAnd, kids: compileList(f.Fs)}
	case logic.Or:
		return &pnode{op: kOr, kids: compileList(f.Fs)}
	case logic.Implies:
		return &pnode{op: kImp, kids: []*pnode{compileSkeleton(f.A), compileSkeleton(f.B)}}
	case logic.Forall:
		return &pnode{op: kAll, vars: f.Vars, kids: []*pnode{compileSkeleton(f.Body)}}
	case logic.Exists:
		return &pnode{op: kAny, vars: f.Vars, kids: []*pnode{compileSkeleton(f.Body)}}
	}
	panic("smt: unexpected skeleton formula: " + f.String())
}

func compileList(fs []logic.Formula) []*pnode {
	out := make([]*pnode, len(fs))
	for i, g := range fs {
		out[i] = compileSkeleton(g)
	}
	return out
}

// groundFill grounds the probe Fill(skeleton, fill). decided reports that
// the simplified probe is a constant, whose value is then valid. ok=false
// means a hole has no fill, so the plan cannot express the probe.
func (pl *groundPlan) groundFill(fill map[string]logic.Formula) (ground logic.Formula, decided, valid, ok bool) {
	root, ok := pl.realize(pl.root, fill)
	if !ok {
		return nil, false, false, false
	}
	if root.op == sConst {
		return nil, true, root.f.(logic.Bool).Val, true
	}
	return pl.groundSimplified(root), false, false, true
}

// groundSimplified grounds the negation of a simplified, non-constant
// formula.
func (pl *groundPlan) groundSimplified(root *sval) logic.Formula {
	var used []*unitEntry
	g := pl.normalize(root, true, newScope(), &used)
	if !g.quant {
		return g.formula()
	}
	gr := pl.newGrounding()
	env := pl.env(used, nil)
	for round := 0; round < pl.s.opts.InstRounds; round++ {
		if round > 0 {
			// Skolem witnesses and other index terms of the previous
			// round's instances become candidates of this one.
			var insts []*instLeaf
			gr.collect(g, &insts)
			env = pl.env(used, insts)
		}
		if env.converged(gr.env) {
			break
		}
		gr.env = env
		clear(gr.cands)
	}
	return gr.ground(g).f
}

// realize computes the simplified probe over the compiled skeleton:
// static subtrees come simplified from the plan, each hole's fill is
// simplified, and the spine folds them with Simplify's rules.
func (pl *groundPlan) realize(nd *pnode, fill map[string]logic.Formula) (*sval, bool) {
	switch nd.op {
	case kStatic:
		return pieceVal(nd.st), true
	case kHole:
		g, ok := fill[nd.hole]
		if !ok {
			return nil, false
		}
		return pieceVal(pl.fillPiece(g)), true
	case kNot:
		c, ok := pl.realize(nd.kids[0], fill)
		if !ok {
			return nil, false
		}
		return negVal(c), true
	case kImp:
		a, ok := pl.realize(nd.kids[0], fill)
		if !ok {
			return nil, false
		}
		b, ok := pl.realize(nd.kids[1], fill)
		if !ok {
			return nil, false
		}
		// logic.Imp's folding, in its order.
		if a.op == sConst {
			if a.f.(logic.Bool).Val {
				return b, true
			}
			return constVal(true), true
		}
		if b.op == sConst {
			if b.f.(logic.Bool).Val {
				return constVal(true), true
			}
			return negVal(a), true
		}
		return &sval{op: sImp, f: logic.Implies{A: a.f, B: b.f}, h: logic.ImpliesHash(a.h, b.h), kids: []*sval{a, b}}, true
	case kAll, kAny:
		c, ok := pl.realize(nd.kids[0], fill)
		if !ok {
			return nil, false
		}
		if c.op == sConst {
			return c, true
		}
		if nd.op == kAll {
			return &sval{op: sAll, f: logic.Forall{Vars: nd.vars, Body: c.f}, h: logic.QuantHash(false, nd.vars, c.h), vars: nd.vars, kids: []*sval{c}}, true
		}
		return &sval{op: sAny, f: logic.Exists{Vars: nd.vars, Body: c.f}, h: logic.QuantHash(true, nd.vars, c.h), vars: nd.vars, kids: []*sval{c}}, true
	}
	// kAnd, kOr: Simplify's junction over the operands, splicing nested
	// operands of the same kind part by part so each kept operand is known.
	or := nd.op == kOr
	j := logic.Junction{Or: or}
	var items []*sval
	add := func(c *sval) bool {
		n0 := j.Len()
		if j.AddHashed(c.f, c.h, nil) {
			return true
		}
		if j.Len() > n0 {
			items = append(items, c)
		}
		return false
	}
	for _, k := range nd.kids {
		c, ok := pl.realize(k, fill)
		if !ok {
			return nil, false
		}
		if parts := c.partsFor(or); parts != nil {
			for _, p := range parts {
				add(p)
			}
		} else if add(c) {
			break
		}
	}
	f, h, _ := j.Result()
	switch {
	case len(items) == 0 || j.Absorbed():
		return constVal(f.(logic.Bool).Val), true
	case len(items) == 1:
		return items[0], true
	}
	op := sAnd
	if or {
		op = sOr
	}
	return &sval{op: op, f: f, h: h, kids: items}, true
}

// fillPiece returns the simplified fill g as a split piece, memoized per
// interned fill.
func (pl *groundPlan) fillPiece(g logic.Formula) *piece {
	n := logic.Intern(g)
	pl.mu.Lock()
	p := pl.fills[n]
	pl.mu.Unlock()
	if p != nil {
		return p
	}
	p = newPiece(n.Simplified(), true)
	pl.mu.Lock()
	if pl.entries < planMemoCap {
		pl.fills[n] = p
		pl.entries++
	}
	pl.mu.Unlock()
	return p
}

// partsFor returns the operands a junction of the given kind splices from
// c: c's own operands when c is a junction of that kind, else nil.
func (c *sval) partsFor(or bool) []*sval {
	switch c.f.(type) {
	case logic.And:
		if or {
			return nil
		}
	case logic.Or:
		if !or {
			return nil
		}
	default:
		return nil
	}
	if c.op != sPiece {
		return c.kids
	}
	out := make([]*sval, len(c.p.parts))
	for i, p := range c.p.parts {
		out[i] = pieceVal(p)
	}
	return out
}

// pieceVal returns the sval standing for p, built with the piece.
func pieceVal(p *piece) *sval { return p.sv }

func (p *piece) initVal() {
	if b, ok := p.f.(logic.Bool); ok {
		p.sv = constVal(b.Val)
		return
	}
	p.sv = &sval{op: sPiece, f: p.f, h: p.n.Hash(), p: p}
}

func constVal(v bool) *sval { return &sval{op: sConst, f: logic.Bool{Val: v}} }

// negVal is logic.Neg over an sval.
func negVal(c *sval) *sval {
	switch f := c.f.(type) {
	case logic.Bool:
		return constVal(!f.Val)
	case logic.Not:
		if c.op == sNot {
			return c.kids[0]
		}
		return pieceVal(newPiece(logic.Intern(f.F), false))
	}
	f := logic.Neg(c.f)
	h := logic.NotHash(c.h)
	if _, ok := f.(logic.Atom); ok {
		n := 0
		h = logic.HashFormula(f, &n)
	}
	return &sval{op: sNot, f: f, h: h, kids: []*sval{c}}
}

// normalize is normalizeFused over an sval, consulting the unit memo at
// every piece. used collects the units of the result, whose contributions
// make up the round-0 candidate sets.
func (pl *groundPlan) normalize(v *sval, neg bool, sc *nscope, used *[]*unitEntry) *gnode {
	switch v.op {
	case sPiece:
		if v.p.split && v.p.parts != nil {
			_, isOr := v.f.(logic.Or)
			and := isOr == neg
			kids := make([]*gnode, len(v.p.parts))
			for i, p := range v.p.parts {
				kids[i] = pl.normalize(pieceVal(p), neg, sc, used)
			}
			return junctionNode(and, kids)
		}
		e := pl.unit(v.p, neg, sc)
		*used = append(*used, e)
		return e.g
	case sNot:
		return pl.normalize(v.kids[0], !neg, sc, used)
	case sImp:
		if neg {
			a := pl.normalize(v.kids[0], false, sc, used)
			return junctionNode(true, []*gnode{a, pl.normalize(v.kids[1], true, sc, used)})
		}
		a := pl.normalize(v.kids[0], true, sc, used)
		return junctionNode(false, []*gnode{a, pl.normalize(v.kids[1], false, sc, used)})
	case sAnd, sOr:
		kids := make([]*gnode, len(v.kids))
		for i, k := range v.kids {
			kids[i] = pl.normalize(k, neg, sc, used)
		}
		return junctionNode((v.op == sAnd) != neg, kids)
	case sAll, sAny:
		exists := (v.op == sAny) != neg
		names, undo := sc.bind(v.vars, exists)
		outer := sc.sig
		sc.sig = outer + scopeLevel(v.vars, names, sc, exists)
		body := pl.normalize(v.kids[0], neg, sc, used)
		sc.sig = outer
		sc.unbind(v.vars, exists, undo)
		if exists {
			return body
		}
		return &gnode{op: gAll, vars: names, body: body, quant: true}
	}
	panic("smt: constant inside a simplified formula")
}

// scopeLevel renders one spine quantifier's bindings for unit memo keys.
func scopeLevel(vars, names []string, sc *nscope, exists bool) string {
	var b strings.Builder
	if exists {
		b.WriteString("|E")
		for _, v := range vars {
			b.WriteString(v)
			b.WriteByte('=')
			b.WriteString(sc.ren[v].String())
			b.WriteByte(',')
		}
		return b.String()
	}
	b.WriteString("|A")
	for i, v := range vars {
		b.WriteString(v)
		b.WriteByte('=')
		b.WriteString(names[i])
		b.WriteByte(',')
	}
	return b.String()
}

// junctionNode joins normalized operands as a conjunction (disjunction).
func junctionNode(and bool, kids []*gnode) *gnode {
	quant := false
	for _, k := range kids {
		quant = quant || k.quant
	}
	if and {
		return &gnode{op: gAnd, kids: kids, quant: quant}
	}
	return &gnode{op: gOr, kids: kids, quant: quant}
}

// formula returns g's normalized formula, building a spine node's on demand
// the way normalizeFused does (Conj, Disj, All).
func (g *gnode) formula() logic.Formula {
	if g.f != nil {
		return g.f
	}
	switch g.op {
	case gAll:
		g.f = logic.All(g.vars, g.body.formula())
	default:
		fs := make([]logic.Formula, len(g.kids))
		for i, k := range g.kids {
			fs[i] = k.formula()
		}
		if g.op == gAnd {
			g.f = logic.Conj(fs...)
		} else {
			g.f = logic.Disj(fs...)
		}
	}
	return g.f
}

// unit returns the memoized normalization of p at this polarity, namer
// position and scope, computing it on a miss, and advances the namers past
// the names it consumes.
func (pl *groundPlan) unit(p *piece, neg bool, sc *nscope) *unitEntry {
	key := unitKey{n: p.n, neg: neg, b: sc.b, sk: sc.sk, scope: sc.sig}
	pl.mu.Lock()
	e := pl.units[key]
	pl.mu.Unlock()
	if e != nil {
		sc.b += e.db
		sc.sk += e.dsk
		return e
	}
	b0, sk0 := sc.b, sc.sk
	out := sc.normalizeFused(p.f, neg)
	e = &unitEntry{g: compileGround(out), db: sc.b - b0, dsk: sc.sk - sk0}
	// A term is ground when it mentions no universal: neither one of the
	// unit's own nor one in scope. Every universal of the whole formula
	// that can occur in the unit is one of these.
	bound := boundVarNames(out)
	for _, u := range sc.univ {
		bound[u] = true
	}
	fb := map[string]logic.Term{}
	collectInstTermsInto(out, bound, fb)
	arr := map[string]map[string]logic.Term{}
	groundArrayIndicesInto(out, bound, arr)
	e.fb, e.arr = flattenContrib(fb, arr)
	pl.mu.Lock()
	if prev := pl.units[key]; prev != nil {
		e = prev
	} else if pl.entries < planMemoCap {
		pl.units[key] = e
		pl.entries++
	}
	pl.mu.Unlock()
	return e
}

func flattenContrib(fb map[string]logic.Term, arr map[string]map[string]logic.Term) ([]keyedTerm, []famTerm) {
	var kts []keyedTerm
	for k, t := range fb {
		kts = append(kts, keyedTerm{key: k, t: t, cx: termComplexity(t)})
	}
	var fts []famTerm
	for fam, m := range arr {
		for k, t := range m {
			fts = append(fts, famTerm{fam: fam, key: k, t: t})
		}
	}
	return kts, fts
}

// compileGround splits a normalized unit into junctions over
// quantifier-free leaves and universals.
func compileGround(f logic.Formula) *gnode {
	var g *gnode
	switch f := f.(type) {
	case logic.And, logic.Or:
		var fs []logic.Formula
		op := gAnd
		if o, ok := f.(logic.Or); ok {
			fs, op = o.Fs, gOr
		} else {
			fs = f.(logic.And).Fs
		}
		kids := make([]*gnode, len(fs))
		quant := false
		for i, h := range fs {
			kids[i] = compileGround(h)
			quant = quant || kids[i].quant
		}
		if !quant {
			g = &gnode{op: gLeaf, f: f}
			break
		}
		g = &gnode{op: op, f: f, kids: kids, quant: true}
	case logic.Forall:
		g = &gnode{op: gAll, f: f, vars: f.Vars, body: compileGround(f.Body), quant: true}
	default:
		g = &gnode{op: gLeaf, f: f}
	}
	g.keep = true
	return g
}

// env builds one round's candidate sets: the units' contributions plus the
// index terms of the previous round's instances, deduplicated by rendering.
// The fallback set is ordered simplest first (termComplexity, then
// rendering), with the literal 0 standing in for an empty set; each family's
// index terms are ordered by rendering.
func (pl *groundPlan) env(used []*unitEntry, insts []*instLeaf) *instEnv {
	var fb []keyedTerm
	var arr []famTerm
	seenFB := map[string]struct{}{}
	seenArr := map[famKey]struct{}{}
	add := func(kts []keyedTerm, fts []famTerm) {
		for _, kt := range kts {
			if _, ok := seenFB[kt.key]; !ok {
				seenFB[kt.key] = struct{}{}
				fb = append(fb, kt)
			}
		}
		for _, ft := range fts {
			if _, ok := seenArr[famKey{ft.fam, ft.key}]; !ok {
				seenArr[famKey{ft.fam, ft.key}] = struct{}{}
				arr = append(arr, ft)
			}
		}
	}
	for _, e := range used {
		add(e.fb, e.arr)
	}
	for _, l := range insts {
		add(l.fb, l.arr)
	}
	env := &instEnv{maxInstances: pl.s.opts.MaxInstances}
	slices.SortFunc(fb, func(a, b keyedTerm) int {
		if a.cx != b.cx {
			return a.cx - b.cx
		}
		return strings.Compare(a.key, b.key)
	})
	if len(fb) == 0 {
		env.fallback, env.fallbackKeys = []logic.Term{logic.I(0)}, []string{"0"}
	} else {
		env.fallback = make([]logic.Term, len(fb))
		env.fallbackKeys = make([]string, len(fb))
		for i, kt := range fb {
			env.fallback[i], env.fallbackKeys[i] = kt.t, kt.key
		}
	}
	slices.SortFunc(arr, func(a, b famTerm) int {
		if c := strings.Compare(a.fam, b.fam); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	terms := make([]logic.Term, len(arr))
	keys := make([]string, len(arr))
	env.arrIndices = map[string][]logic.Term{}
	env.arrKeys = map[string][]string{}
	for i := 0; i < len(arr); {
		j := i
		for j < len(arr) && arr[j].fam == arr[i].fam {
			terms[j], keys[j] = arr[j].t, arr[j].key
			j++
		}
		env.arrIndices[arr[i].fam] = terms[i:j:j]
		env.arrKeys[arr[i].fam] = keys[i:j:j]
		i = j
	}
	return env
}

// grounding is one probe's instantiation state: the candidate sets of the
// current round, the substitution of the universals being expanded, its
// rendering (the leaf instance memo key), and the round's candidate tuples
// per universal, which collect and ground share.
type grounding struct {
	pl    *groundPlan
	env   *instEnv
	sub   map[string]logic.Term
	key   []byte
	cands map[*gnode]instCands
	// tuples is the instance count of the universal eachInstance is
	// expanding, a capacity hint for its junction.
	tuples int
}

type instCands struct {
	terms [][]logic.Term
	keys  [][]string
}

func (pl *groundPlan) newGrounding() *grounding {
	return &grounding{pl: pl, sub: map[string]logic.Term{}, cands: map[*gnode]instCands{}}
}

// collect appends every leaf instance of g's instantiation.
func (gr *grounding) collect(g *gnode, out *[]*instLeaf) {
	switch g.op {
	case gLeaf:
		if len(gr.sub) > 0 {
			*out = append(*out, gr.leafInst(g))
		}
	case gAnd, gOr:
		for _, k := range g.kids {
			gr.collect(k, out)
		}
	case gAll:
		gr.eachInstance(g, func() bool {
			gr.collect(g.body, out)
			return true
		})
	}
}

// ground returns Simplify(instantiate(g)) under the current substitution,
// combining memoized leaves with Simplify's junction rule.
func (gr *grounding) ground(g *gnode) gres {
	switch g.op {
	case gLeaf:
		if len(gr.sub) > 0 {
			return gr.leafInst(g).simp
		}
		return gr.pl.leafSimp(g)
	case gAnd, gOr:
		j := logic.Junction{Or: g.op == gOr}
		j.Grow(len(g.kids))
		for _, k := range g.kids {
			r := gr.ground(k)
			if j.AddHashed(r.f, r.h, r.parts) {
				break
			}
		}
		return junctionGres(&j)
	}
	var j logic.Junction
	gr.eachInstance(g, func() bool {
		if j.Len() == 0 {
			j.Grow(gr.tuples)
		}
		r := gr.ground(g.body)
		return !j.AddHashed(r.f, r.h, r.parts)
	})
	return junctionGres(&j)
}

// eachInstance binds g's variables to each candidate tuple in turn, in
// instantiation order, extending the substitution and its key, and calls fn
// until it returns false.
func (gr *grounding) eachInstance(g *gnode, fn func() bool) {
	c, ok := gr.cands[g]
	if !ok || len(gr.sub) > 0 {
		var trigs map[string][]trigger
		switch {
		case len(gr.sub) > 0:
			// A universal nested in another: its triggers are those of its
			// instance under the outer substitution.
			q := logic.Substitute(g.formula(), gr.sub, nil).(logic.Forall)
			trigs = gr.pl.s.triggers(q)
		case g.keep:
			trigs = gr.pl.unitTriggers(g, g.body, g.vars)
		default:
			trigs = gr.pl.spineTriggers(g)
		}
		c.terms, c.keys = gr.env.instanceCands(g.vars, trigs)
		if len(gr.sub) == 0 {
			gr.cands[g] = c
		}
	}
	gr.tuples = 1
	for _, ts := range c.terms {
		gr.tuples *= len(ts)
	}
	k := len(g.vars)
	var gen func(i int) bool
	gen = func(i int) bool {
		if i == k {
			return fn()
		}
		mark := len(gr.key)
		for x, t := range c.terms[i] {
			gr.sub[g.vars[i]] = t
			gr.key = append(append(gr.key[:mark], 0), c.keys[i][x]...)
			if !gen(i + 1) {
				return false
			}
		}
		gr.key = gr.key[:mark]
		return true
	}
	mark := len(gr.key)
	gr.key = append(gr.key, 1)
	gen(0)
	gr.key = gr.key[:mark]
	for _, v := range g.vars {
		delete(gr.sub, v)
	}
}

// spineTriggers returns the triggers of a universal rebuilt per probe: the
// union of its units' triggers for its variables. Candidate selection only
// asks which patterns a variable occurs in, so the union over the body's
// parts is the body's set.
func (pl *groundPlan) spineTriggers(g *gnode) map[string][]trigger {
	out := map[string][]trigger{}
	var walk func(n *gnode)
	walk = func(n *gnode) {
		if n.keep {
			for v, ts := range pl.unitTriggers(n, n, g.vars) {
				for _, t := range ts {
					if !hasTrigger(out[v], t) {
						out[v] = append(out[v], t)
					}
				}
			}
			return
		}
		if n.op == gAll {
			walk(n.body)
			return
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(g.body)
	return out
}

func hasTrigger(ts []trigger, t trigger) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// unitTriggers returns triggersOf(body.f, vars), cached on the kept node n.
func (pl *groundPlan) unitTriggers(n, body *gnode, vars []string) map[string][]trigger {
	vk := strings.Join(vars, ",")
	pl.mu.Lock()
	t, ok := n.trigs[vk]
	pl.mu.Unlock()
	if !ok {
		t = triggersOf(body.f, vars)
		pl.mu.Lock()
		if n.trigs == nil {
			n.trigs = map[string]map[string][]trigger{}
		}
		n.trigs[vk] = t
		pl.mu.Unlock()
	}
	return t
}

// leafSimp returns Simplify(g.f), computed once for kept nodes.
func (pl *groundPlan) leafSimp(g *gnode) gres {
	if !g.keep {
		return newGres(logic.Simplify(g.f))
	}
	pl.mu.Lock()
	r := g.simp
	pl.mu.Unlock()
	if r == nil {
		v := newGres(logic.Simplify(g.f))
		r = &v
		pl.mu.Lock()
		g.simp = r
		pl.mu.Unlock()
	}
	return *r
}

// leafInst returns the leaf's instance under the current substitution,
// computing and memoizing it on a miss.
func (gr *grounding) leafInst(g *gnode) *instLeaf {
	pl := gr.pl
	pl.mu.Lock()
	l := g.inst[string(gr.key)]
	pl.mu.Unlock()
	if l != nil {
		return l
	}
	inst := logic.Substitute(g.f, gr.sub, nil)
	fb := map[string]logic.Term{}
	collectInstTermsInto(inst, nil, fb)
	arr := map[string]map[string]logic.Term{}
	groundArrayIndicesInto(inst, nil, arr)
	l = &instLeaf{simp: newGres(logic.Simplify(inst))}
	l.fb, l.arr = flattenContrib(fb, arr)
	pl.mu.Lock()
	if prev := g.inst[string(gr.key)]; prev != nil {
		l = prev
	} else if pl.entries < planMemoCap {
		if g.inst == nil {
			g.inst = map[string]*instLeaf{}
		}
		g.inst[string(gr.key)] = l
		pl.entries++
	}
	pl.mu.Unlock()
	return l
}

// groundStatic grounds the negation of n with no skeleton to share: the
// whole simplified formula is one unit of a throwaway plan. decided reports
// that n simplifies to a constant, whose value is then valid.
func (s *Solver) groundStatic(n *logic.IFormula) (ground logic.Formula, decided, valid bool) {
	sn := n.Simplified()
	if b, ok := sn.Formula().(logic.Bool); ok {
		return nil, true, b.Val
	}
	pl := &groundPlan{s: s, units: map[unitKey]*unitEntry{}}
	p := &piece{f: sn.Formula(), n: sn}
	p.initVal()
	return pl.groundSimplified(p.sv), false, false
}
