package smt

import (
	"cmp"
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
//     from the root to the holes, over the simplified fill. A fill is one
//     piece per interned fill, split into one piece per interned predicate
//     that all fills share.
//   - normalize: one fused pass (normalizeFused) does the work of NNF,
//     standardization and skolemization. Each memoizable unit — a static
//     subtree, or one predicate of a fill — is normalized once per polarity,
//     namer position and binding scope. A spine quantifier's scope (its
//     number, @b names and replacement terms) is built once per parent
//     scope and namer position. The spine's own nodes, split fills
//     included, hold the probe's fresh fill, so they are rebuilt per probe
//     and never kept: a fleet that keeps its contexts keeps every plan.
//   - ground: each unit's candidate keys are numbered once per plan. A
//     round's candidate environment is interned by its content, the sorted
//     ids of its keys, and memoizes the candidate tuples of each universal
//     per trigger set (its variables and the select patterns they occur
//     in; a spine universal's set is interned by content). Each
//     quantifier-free leaf is simplified once, and each instance of a leaf
//     under a candidate substitution is built, simplified and numbered once.
//     A probe rebuilds only the junctions above the leaves, splicing a
//     nested junction of the same kind into its parent as it goes.
//
// One instance pass per round: grounding a round enumerates its leaf
// instances, so the next round's candidates come from the same pass. Only
// when a junction stops early on an absorbing constant does a separate
// collect pass enumerate the instances it skipped. The next round's
// environment is then interned like the first and compared with converged;
// when no instance key is new, its ids are the previous environment's, so
// the lookup finds that environment and builds nothing.
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
// A plan is built lazily, on the first probe of a registered context that
// reaches grounding, and dies with the context. Its memos are guarded by
// one mutex, held only for lookups and inserts, because the context's
// probes ground concurrently before they take its lock. They form one
// generation of at most planMemoCap entries: fills, predicate pieces,
// units, scopes, candidate keys, environments, trigger sets, tuples and
// leaf instances. The insert that fills a generation detaches
// it: later probes start a fresh one, and the probes still grounding from
// the full one finish on it, so what they add dies with them.

// planMemoCap bounds the entries of a plan's memo generation. The largest
// quantified context of the DefaultSuite cells holds about 500; Double
// Stride's GFP context, whose 5 624 probes nearly all carry a distinct fill,
// fills one generation.
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
	// sig numbers ren and univ for memo keys (0 is the empty scope). It is
	// maintained only by the plan's spine walk. Inside one unit the bindings
	// are that unit's own, and no memo is consulted.
	sig int32
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

// bindAs binds vars as bind does, to the names and replacement terms bind
// handed out at the same position before, and appends the shadowed bindings
// to undo.
func (sc *nscope) bindAs(vars []string, exists bool, names []string, repl, undo []logic.Term) []logic.Term {
	for i, x := range vars {
		undo = append(undo, sc.ren[x])
		sc.ren[x] = repl[i]
	}
	sc.b += len(vars)
	if exists {
		sc.sk += len(vars)
	} else {
		sc.univ = append(sc.univ, names...)
	}
	return undo
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
	// junction can splice them as Simplify flattens nested operands, and
	// partVals their svals.
	parts    []*piece
	partVals []*sval
	// split makes the normalizer descend into parts. Fills are split, so
	// that memo entries are per predicate rather than per conjunction.
	split bool
	sv    *sval // the piece as a realized value
}

// newPiece builds the piece of the simplified formula n, taking the piece
// of each operand from part.
func newPiece(n *logic.IFormula, split bool, part func(*logic.IFormula) *piece) *piece {
	p := leafPiece(n)
	p.split = split
	var fs []logic.Formula
	switch f := p.f.(type) {
	case logic.And:
		fs = f.Fs
	case logic.Or:
		fs = f.Fs
	}
	if fs != nil {
		p.parts = make([]*piece, len(fs))
		p.partVals = make([]*sval, len(fs))
		for i, g := range fs {
			p.parts[i] = part(logic.Intern(g))
			p.partVals[i] = p.parts[i].sv
		}
	}
	return p
}

// leafPiece builds the piece of the simplified formula n without its
// operands' pieces: a fill's predicates are normalized whole, so building
// theirs would intern every operand of every predicate for nothing.
func leafPiece(n *logic.IFormula) *piece {
	p := &piece{f: n.Formula(), n: n}
	if b, ok := p.f.(logic.Bool); ok {
		p.sv = constVal(b.Val)
	} else {
		p.sv = &sval{op: sPiece, f: p.f, h: n.Hash(), p: p}
	}
	return p
}

// pnode is one node of the compiled skeleton: a static (hole-free) subtree,
// a hole, or a spine connective above at least one hole.
type pnode struct {
	op      pop
	kids    []*pnode
	vars    []string
	varsKey string // vars joined, for scope keys
	hole    string
	st      *piece // kStatic: the simplified subtree
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
// constant, a piece, or a spine connective over svals. Spine svals are kept
// per plan generation, so equal operands under one skeleton node give the
// same sval.
type sval struct {
	op   sop
	f    logic.Formula // the simplified formula this sval stands for
	h    uint64        // HashFormula(f), composed from the operands' hashes
	p    *piece        // sPiece
	nd   *pnode        // sAll, sAny: the skeleton quantifier
	kids []*sval
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

var trueVal, falseVal = &sval{op: sConst, f: logic.True}, &sval{op: sConst, f: logic.False}

func constVal(v bool) *sval {
	if v {
		return trueVal
	}
	return falseVal
}

// gnode is a normalized formula prepared for instantiation: a
// quantifier-free leaf, a junction, or a universal. Nodes compiled from a
// memoized unit are kept (keep) and memoize their leaf simplification, leaf
// instances and triggers. Spine nodes are rebuilt per probe.
type gnode struct {
	op    gop
	f     logic.Formula // kept nodes only; spine nodes build it on demand
	kids  []*gnode
	vars  []string // gAll
	body  *gnode   // gAll
	quant bool     // a universal occurs at or below this node
	keep  bool

	simp *gres                // gLeaf: Simplify(f), once computed
	inst map[string]*instLeaf // gLeaf: instances by substitution key
	// trigs caches, per variable list, the triggers of f (a unit inside a
	// spine universal); ts is a kept universal's trigger set.
	trigs map[string]map[string][]trigger
	ts    *trigSet
}

type gop uint8

const (
	gLeaf gop = iota
	gAnd
	gOr
	gAll
)

// unitEntry is one normalized unit: its instantiation-ready form, the names
// it consumed, and the ids of its candidate keys.
type unitEntry struct {
	g       *gnode
	db, dsk int
	ids     []int32
}

// instLeaf is one quantifier-free leaf under one candidate substitution: its
// simplified form and the ids of the index terms the unsimplified instance
// adds to the next round's candidate sets.
type instLeaf struct {
	simp gres
	ids  []int32
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

// candKey is one candidate: a fallback term, or an array family's index
// term, by rendering.
type candKey struct {
	arr      bool
	fam, key string
}

// candInfo is the candidate a per-plan id stands for.
type candInfo struct {
	candKey
	t  logic.Term
	cx int // termComplexity(t)
}

type unitKey struct {
	n     *logic.IFormula
	neg   bool
	b, sk int
	scope int32
}

// scopeKey is one spine quantifier's bindings over its parent scope.
type scopeKey struct {
	parent int32
	vars   string
	b, sk  int
	exists bool
}

// planMemo is one generation of a plan's memos.
type planMemo struct {
	entries int
	fills   map[*logic.IFormula]*piece // by interned fill
	pieces  map[*logic.IFormula]*piece // by interned predicate
	units   map[unitKey]*unitEntry
	scopes  map[scopeKey]*scopeEntry
	keyIDs  map[candKey]int32
	keys    []candInfo            // by id
	envs    map[uint64][]*instEnv // by hashIDs of their ids
	trigs   map[uint64][]*trigSet // spine universals', by content
}

func newPlanMemo() *planMemo {
	return &planMemo{
		fills:  map[*logic.IFormula]*piece{},
		pieces: map[*logic.IFormula]*piece{},
		units:  map[unitKey]*unitEntry{},
		scopes: map[scopeKey]*scopeEntry{},
		keyIDs: map[candKey]int32{},
		envs:   map[uint64][]*instEnv{},
		trigs:  map[uint64][]*trigSet{},
	}
}

// groundPlan is one context's compiled skeleton plus its memos.
type groundPlan struct {
	s    *Solver
	root *pnode
	cap  int // entries per memo generation: planMemoCap

	mu   sync.Mutex
	m    *planMemo    // the current generation
	idle []*grounding // scratch of finished probes, for the next ones
}

func newPlan(s *Solver) *groundPlan {
	return &groundPlan{s: s, cap: planMemoCap, m: newPlanMemo()}
}

// newGroundPlan compiles skel, a formula whose unknowns are the probes'
// holes.
func newGroundPlan(s *Solver, skel logic.Formula) *groundPlan {
	pl := newPlan(s)
	pl.root = compileSkeleton(skel)
	return pl
}

// admit counts one entry just added to m. pl.mu must be held.
func (pl *groundPlan) admit(m *planMemo) {
	m.entries++
	if m.entries >= pl.cap && pl.m == m {
		pl.m = newPlanMemo()
	}
}

func compileSkeleton(f logic.Formula) *pnode {
	if len(logic.Unknowns(f)) == 0 {
		return &pnode{op: kStatic, st: newPiece(logic.Intern(logic.Simplify(f)), false, leafPiece)}
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
		return &pnode{op: kAll, vars: f.Vars, varsKey: strings.Join(f.Vars, ","), kids: []*pnode{compileSkeleton(f.Body)}}
	case logic.Exists:
		return &pnode{op: kAny, vars: f.Vars, varsKey: strings.Join(f.Vars, ","), kids: []*pnode{compileSkeleton(f.Body)}}
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

// grounding is one probe's scratch: its memo generation, the normalization
// scope and the units it used, the current round's environment, the
// substitution of the universals being expanded with its rendering (the
// leaf instance memo key) and odometer, the round's leaf instances, and the
// buffers realize and environment interning reuse. A plan keeps the
// groundings of finished probes for the next ones: at most one per probe
// that grounded at once.
type grounding struct {
	pl   *groundPlan
	m    *planMemo
	sc   nscope
	used []*unitEntry

	env     *instEnv
	sub     map[string]logic.Term
	key     []byte
	odo     []odometer
	insts   []*instLeaf
	stopped bool // a junction skipped instances this round

	js    []*logic.Junction // realize's junction per spine depth
	depth int
	items []*sval

	stamp []uint32 // per candidate id, the epoch that last saw it
	epoch uint32
	ids   []int32
	pairs []varTrig
	undo  []logic.Term // the bindings spine quantifiers shadow
}

// odometer is one bound variable of a universal being expanded: its
// candidate index and the key length before its segment.
type odometer struct{ x, mark int }

// acquire returns a grounding for one probe, on the current generation.
func (pl *groundPlan) acquire() *grounding {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var gr *grounding
	if n := len(pl.idle); n > 0 {
		gr, pl.idle = pl.idle[n-1], pl.idle[:n-1]
	} else {
		gr = &grounding{pl: pl, sub: map[string]logic.Term{}, sc: nscope{ren: map[string]logic.Term{}}}
	}
	gr.m = pl.m
	return gr
}

// release keeps gr for the plan's next probe, dropping what it references
// of this one.
func (pl *groundPlan) release(gr *grounding) {
	clear(gr.used)
	clear(gr.insts)
	clear(gr.items[:cap(gr.items)])
	for _, j := range gr.js {
		j.Reset(false)
	}
	gr.used, gr.insts = gr.used[:0], gr.insts[:0]
	gr.m, gr.env, gr.stopped = nil, nil, false
	gr.sc.b, gr.sc.sk, gr.sc.sig = 0, 0, 0
	pl.mu.Lock()
	pl.idle = append(pl.idle, gr)
	pl.mu.Unlock()
}

// groundFill grounds the probe Fill(skeleton, fill). decided reports that
// the simplified probe is a constant, whose value is then valid. ok=false
// means a hole has no fill, so the plan cannot express the probe.
func (pl *groundPlan) groundFill(fill map[string]logic.Formula) (ground logic.Formula, decided, valid, ok bool) {
	gr := pl.acquire()
	defer pl.release(gr)
	root, ok := gr.realize(pl.root, fill)
	if !ok {
		return nil, false, false, false
	}
	if root.op == sConst {
		return nil, true, root.f.(logic.Bool).Val, true
	}
	return gr.groundSimplified(root), false, false, true
}

// groundSimplified grounds the negation of a simplified, non-constant
// formula, one instance pass per round.
func (gr *grounding) groundSimplified(root *sval) logic.Formula {
	g := gr.normalize(root, true)
	if !g.quant {
		return g.formula()
	}
	env := gr.roundEnv()
	for round := 1; ; round++ {
		gr.env, gr.stopped = env, false
		clear(gr.insts)
		gr.insts = gr.insts[:0]
		res := gr.ground(g)
		if round >= gr.pl.s.opts.InstRounds {
			return res.f
		}
		if gr.stopped {
			clear(gr.insts)
			gr.insts = gr.insts[:0]
			gr.collect(g)
		}
		// Skolem witnesses and other index terms of this round's instances
		// become candidates of the next one.
		next := gr.roundEnv()
		if next == env || next.converged(env) {
			return res.f
		}
		env = next
	}
}

// roundEnv returns the environment of the units' candidate keys and those
// of the leaf instances in gr.insts.
func (gr *grounding) roundEnv() *instEnv {
	gr.beginIDs()
	for _, e := range gr.used {
		gr.addIDs(e.ids)
	}
	for _, l := range gr.insts {
		gr.addIDs(l.ids)
	}
	return gr.internEnv()
}

// realize computes the simplified probe over the compiled skeleton:
// static subtrees come simplified from the plan, each hole's fill is
// simplified, and the spine folds them with Simplify's rules.
func (gr *grounding) realize(nd *pnode, fill map[string]logic.Formula) (*sval, bool) {
	switch nd.op {
	case kStatic:
		return nd.st.sv, true
	case kHole:
		g, ok := fill[nd.hole]
		if !ok {
			return nil, false
		}
		return gr.fillPiece(g).sv, true
	case kNot:
		c, ok := gr.realize(nd.kids[0], fill)
		if !ok {
			return nil, false
		}
		return gr.negVal(c), true
	case kImp:
		a, ok := gr.realize(nd.kids[0], fill)
		if !ok {
			return nil, false
		}
		b, ok := gr.realize(nd.kids[1], fill)
		if !ok {
			return nil, false
		}
		// logic.Imp's folding, in its order.
		if a.op == sConst {
			if a.f.(logic.Bool).Val {
				return b, true
			}
			return trueVal, true
		}
		if b.op == sConst {
			if b.f.(logic.Bool).Val {
				return trueVal, true
			}
			return gr.negVal(a), true
		}
		return &sval{op: sImp, f: logic.Implies{A: a.f, B: b.f}, h: logic.ImpliesHash(a.h, b.h), kids: []*sval{a, b}}, true
	case kAll, kAny:
		c, ok := gr.realize(nd.kids[0], fill)
		if !ok {
			return nil, false
		}
		if c.op == sConst {
			return c, true
		}
		v := &sval{op: sAll, h: logic.QuantHash(nd.op == kAny, nd.vars, c.h), nd: nd, kids: []*sval{c}}
		if nd.op == kAll {
			v.f = logic.Forall{Vars: nd.vars, Body: c.f}
		} else {
			v.op, v.f = sAny, logic.Exists{Vars: nd.vars, Body: c.f}
		}
		return v, true
	}
	// kAnd, kOr: Simplify's junction over the operands, splicing nested
	// operands of the same kind part by part so each kept operand is known.
	// Each spine depth reuses its own junction; the kept operands stack up
	// in items from base.
	or := nd.op == kOr
	if gr.depth == len(gr.js) {
		gr.js = append(gr.js, &logic.Junction{})
	}
	j := gr.js[gr.depth]
	j.Reset(or)
	gr.depth++
	defer func() { gr.depth-- }()
	base := len(gr.items)
	add := func(c *sval) bool {
		n0 := j.Len()
		if j.AddHashed(c.f, c.h, nil) {
			return true
		}
		if j.Len() > n0 {
			gr.items = append(gr.items, c)
		}
		return false
	}
	for _, k := range nd.kids {
		c, ok := gr.realize(k, fill)
		if !ok {
			gr.items = gr.items[:base]
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
	items := gr.items[base:]
	defer func() { gr.items = gr.items[:base] }()
	switch {
	case j.Absorbed():
		return constVal(or), true
	case len(items) == 0:
		return constVal(!or), true
	case len(items) == 1:
		return items[0], true
	}
	op := sAnd
	if or {
		op = sOr
	}
	f, h, _ := j.Result()
	if or {
		f = logic.Or{Fs: slices.Clone(f.(logic.Or).Fs)}
	} else {
		f = logic.And{Fs: slices.Clone(f.(logic.And).Fs)}
	}
	return &sval{op: op, f: f, h: h, kids: slices.Clone(items)}, true
}

// fillPiece returns the simplified fill g as a split piece, memoized per
// interned fill, whose parts are the shared predicate pieces.
func (gr *grounding) fillPiece(g logic.Formula) *piece {
	pl, m := gr.pl, gr.m
	n := logic.Intern(g)
	pl.mu.Lock()
	p := m.fills[n]
	pl.mu.Unlock()
	if p != nil {
		return p
	}
	p = newPiece(n.Simplified(), true, gr.pieceOf)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := m.fills[n]; prev != nil {
		return prev
	}
	m.fills[n] = p
	pl.admit(m)
	return p
}

// pieceOf returns the leaf piece of the simplified formula n, one per
// interned formula: all fills share their predicates' pieces.
func (gr *grounding) pieceOf(n *logic.IFormula) *piece {
	pl, m := gr.pl, gr.m
	pl.mu.Lock()
	p := m.pieces[n]
	pl.mu.Unlock()
	if p != nil {
		return p
	}
	p = leafPiece(n)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := m.pieces[n]; prev != nil {
		return prev
	}
	m.pieces[n] = p
	pl.admit(m)
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
	switch {
	case c.op != sPiece:
		return c.kids
	case c.p.partVals == nil:
		// A fill's predicate, the only operand its junction kept, spliced
		// into an enclosing junction of its own kind: rare enough to
		// split unshared.
		return newPiece(c.p.n, false, leafPiece).partVals
	}
	return c.p.partVals
}

// negVal is logic.Neg over an sval.
func (gr *grounding) negVal(c *sval) *sval {
	switch f := c.f.(type) {
	case logic.Bool:
		return constVal(!f.Val)
	case logic.Not:
		if c.op == sNot {
			return c.kids[0]
		}
		return gr.pieceOf(logic.Intern(f.F)).sv
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
// every piece. gr.used collects the units of the result, whose candidate
// keys make up round 0's environment.
func (gr *grounding) normalize(v *sval, neg bool) *gnode {
	switch {
	case v.op == sConst:
		panic("smt: constant inside a simplified formula")
	case v.op == sNot:
		return gr.normalize(v.kids[0], !neg)
	case v.op == sPiece && (!v.p.split || v.p.parts == nil):
		e := gr.unit(v.p, neg)
		gr.used = append(gr.used, e)
		return e.g
	}
	return gr.normalizeSpine(v, neg)
}

// normalizeSpine normalizes one spine node or split fill, which is built
// per probe.
func (gr *grounding) normalizeSpine(v *sval, neg bool) *gnode {
	sc := &gr.sc
	switch v.op {
	case sPiece:
		// A split fill: the junction of its predicates' units.
		_, isOr := v.f.(logic.Or)
		kids := make([]*gnode, len(v.p.parts))
		for i, p := range v.p.parts {
			kids[i] = gr.normalize(p.sv, neg)
		}
		return junctionNode(isOr == neg, kids)
	case sImp:
		if neg {
			a := gr.normalize(v.kids[0], false)
			return junctionNode(true, []*gnode{a, gr.normalize(v.kids[1], true)})
		}
		a := gr.normalize(v.kids[0], true)
		return junctionNode(false, []*gnode{a, gr.normalize(v.kids[1], false)})
	case sAnd, sOr:
		kids := make([]*gnode, len(v.kids))
		for i, k := range v.kids {
			kids[i] = gr.normalize(k, neg)
		}
		return junctionNode((v.op == sAnd) != neg, kids)
	}
	// sAll, sAny: bind the scope's memoized bindings, then unbind.
	vars, outer := v.nd.vars, sc.sig
	exists := (v.op == sAny) != neg
	scope := gr.scope(scopeKey{parent: outer, vars: v.nd.varsKey, b: sc.b, sk: sc.sk, exists: exists}, vars)
	mark := len(gr.undo)
	gr.undo = sc.bindAs(vars, exists, scope.names, scope.repl, gr.undo)
	sc.sig = scope.id
	body := gr.normalize(v.kids[0], neg)
	sc.sig = outer
	sc.unbind(vars, exists, gr.undo[mark:mark+len(vars)])
	clear(gr.undo[mark:])
	gr.undo = gr.undo[:mark]
	if exists {
		return body
	}
	return &gnode{op: gAll, vars: scope.names, body: body, quant: true}
}

// scopeEntry is one spine quantifier's scope: its number, and the @b names
// and replacement terms nscope.bind hands its variables.
type scopeEntry struct {
	id    int32
	names []string
	repl  []logic.Term
}

// scope returns the scope of the key k over vars, which determines its
// bindings: a universal's variables take the @b names after k.b, an
// existential's the skolem terms after k.sk over the parent scope's
// universals, which are those in gr.sc.
func (gr *grounding) scope(k scopeKey, vars []string) *scopeEntry {
	pl, m := gr.pl, gr.m
	pl.mu.Lock()
	e := m.scopes[k]
	pl.mu.Unlock()
	if e != nil {
		return e
	}
	sc := nscope{ren: map[string]logic.Term{}, univ: slices.Clip(gr.sc.univ), b: k.b, sk: k.sk}
	names, _ := sc.bind(vars, k.exists)
	e = &scopeEntry{names: names, repl: make([]logic.Term, len(vars))}
	for i, x := range vars {
		e.repl[i] = sc.ren[x]
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := m.scopes[k]; prev != nil {
		return prev
	}
	e.id = int32(len(m.scopes) + 1)
	m.scopes[k] = e
	pl.admit(m)
	return e
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

// formula returns g's normalized formula, building a spine node's the way
// normalizeFused does (Conj, Disj, All).
func (g *gnode) formula() logic.Formula {
	if g.f != nil {
		return g.f
	}
	if g.op == gAll {
		return logic.All(g.vars, g.body.formula())
	}
	fs := make([]logic.Formula, len(g.kids))
	for i, k := range g.kids {
		fs[i] = k.formula()
	}
	if g.op == gAnd {
		return logic.Conj(fs...)
	}
	return logic.Disj(fs...)
}

// unit returns the memoized normalization of p at this polarity, namer
// position and scope, computing it on a miss, and advances the namers past
// the names it consumes.
func (gr *grounding) unit(p *piece, neg bool) *unitEntry {
	pl, m, sc := gr.pl, gr.m, &gr.sc
	key := unitKey{n: p.n, neg: neg, b: sc.b, sk: sc.sk, scope: sc.sig}
	pl.mu.Lock()
	e := m.units[key]
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
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := m.units[key]; prev != nil {
		return prev
	}
	e.ids = pl.candIDs(m, fb, arr)
	m.units[key] = e
	pl.admit(m)
	return e
}

// candIDs returns the ids of a contribution's candidate keys, numbering new
// ones. pl.mu must be held.
func (pl *groundPlan) candIDs(m *planMemo, fb map[string]logic.Term, arr map[string]map[string]logic.Term) []int32 {
	var ids []int32
	add := func(k candKey, t logic.Term) {
		id, ok := m.keyIDs[k]
		if !ok {
			id = int32(len(m.keys))
			m.keyIDs[k] = id
			m.keys = append(m.keys, candInfo{candKey: k, t: t, cx: termComplexity(t)})
			pl.admit(m)
		}
		ids = append(ids, id)
	}
	for k, t := range fb {
		add(candKey{key: k}, t)
	}
	for fam, ts := range arr {
		for k, t := range ts {
			add(candKey{arr: true, fam: fam, key: k}, t)
		}
	}
	return ids
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

// beginIDs starts collecting a deduplicated candidate id list in gr.ids.
func (gr *grounding) beginIDs() {
	gr.ids = gr.ids[:0]
	gr.epoch++
	if gr.epoch == 0 {
		clear(gr.stamp)
		gr.epoch = 1
	}
}

// addIDs appends the ids new to the list being collected, marking them.
func (gr *grounding) addIDs(ids []int32) {
	for _, id := range ids {
		if int(id) >= len(gr.stamp) {
			gr.stamp = append(gr.stamp, make([]uint32, int(id)+1-len(gr.stamp))...)
		}
		if gr.stamp[id] != gr.epoch {
			gr.stamp[id] = gr.epoch
			gr.ids = append(gr.ids, id)
		}
	}
}

// internEnv returns the environment of the collected ids, building it on the
// generation's first use of that candidate set.
func (gr *grounding) internEnv() *instEnv {
	pl, m := gr.pl, gr.m
	slices.Sort(gr.ids)
	h := hashIDs(gr.ids)
	pl.mu.Lock()
	for _, env := range m.envs[h] {
		if slices.Equal(env.ids, gr.ids) {
			pl.mu.Unlock()
			return env
		}
	}
	keys := m.keys
	pl.mu.Unlock()
	env := buildEnv(keys, slices.Clone(gr.ids), pl.s.opts.MaxInstances)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, prev := range m.envs[h] {
		if slices.Equal(prev.ids, env.ids) {
			return prev
		}
	}
	m.envs[h] = append(m.envs[h], env)
	pl.admit(m)
	if envCheck != nil {
		envCheck()
	}
	return env
}

// envCheck, when non-nil, sees every environment a plan builds. Tests count
// environments through it (export_test.go); it is nil otherwise.
var envCheck func()

// hashIDs is FNV-1a over ids.
func hashIDs(ids []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * fnvPrime
	}
	return h
}

const fnvPrime = 1099511628211

// buildEnv builds the candidate sets of the sorted ids. The fallback set is
// ordered simplest first (termComplexity, then rendering), with the literal 0
// standing in for an empty set; each family's index terms are ordered by
// rendering.
func buildEnv(keys []candInfo, ids []int32, maxInstances int) *instEnv {
	env := &instEnv{maxInstances: maxInstances, ids: ids}
	var fb, arr []*candInfo
	for _, id := range ids {
		if c := &keys[id]; c.arr {
			arr = append(arr, c)
		} else {
			fb = append(fb, c)
		}
	}
	slices.SortFunc(fb, func(a, b *candInfo) int {
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
		for i, c := range fb {
			env.fallback[i], env.fallbackKeys[i] = c.t, c.key
		}
	}
	slices.SortFunc(arr, func(a, b *candInfo) int {
		if c := strings.Compare(a.fam, b.fam); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	terms := make([]logic.Term, len(arr))
	tkeys := make([]string, len(arr))
	env.arrIndices = map[string][]logic.Term{}
	env.arrKeys = map[string][]string{}
	for i := 0; i < len(arr); {
		j := i
		for j < len(arr) && arr[j].fam == arr[i].fam {
			terms[j], tkeys[j] = arr[j].t, arr[j].key
			j++
		}
		env.arrIndices[arr[i].fam] = terms[i:j:j]
		env.arrKeys[arr[i].fam] = tkeys[i:j:j]
		i = j
	}
	return env
}

// collect appends every leaf instance of g's instantiation to gr.insts.
func (gr *grounding) collect(g *gnode) {
	switch g.op {
	case gLeaf:
		if len(gr.sub) > 0 {
			gr.insts = append(gr.insts, gr.leafInst(g))
		}
	case gAnd, gOr:
		for _, k := range g.kids {
			gr.collect(k)
		}
	case gAll:
		c := gr.tuplesFor(g)
		base, mark, ok := gr.firstInst(g, c)
		for ok {
			gr.collect(g.body)
			ok = gr.nextInst(g, c, base)
		}
		gr.endInst(g, base, mark)
	}
}

// ground returns Simplify(instantiate(g)) under the current substitution,
// combining memoized leaves with Simplify's junction rule, and appends the
// leaf instances it visits to gr.insts.
func (gr *grounding) ground(g *gnode) gres {
	if g.op == gLeaf {
		if len(gr.sub) > 0 {
			l := gr.leafInst(g)
			gr.insts = append(gr.insts, l)
			return l.simp
		}
		return gr.pl.leafSimp(g)
	}
	j := logic.Junction{Or: g.op == gOr}
	gr.groundInto(g, &j)
	return junctionGres(&j)
}

// groundInto adds the operands of g's instantiation, a junction of j's kind
// (a universal's instances are a conjunction), to j, and reports whether j
// is now absorbed. Adding them one by one to the enclosing junction keeps
// exactly what folding g's own junction into it keeps — its operands
// deduplicated, in order, or the absorbing constant — without building it.
func (gr *grounding) groundInto(g *gnode, j *logic.Junction) bool {
	if g.op != gAll {
		j.Grow(len(g.kids))
		for i, k := range g.kids {
			if gr.addGround(k, j) {
				gr.stopped = gr.stopped || gr.skipsInstances(g.kids[i+1:])
				return true
			}
		}
		return false
	}
	c := gr.tuplesFor(g)
	j.Grow(c.count)
	base, mark, ok := gr.firstInst(g, c)
	absorbed := false
	for ok {
		if gr.addGround(g.body, j) {
			gr.stopped = gr.stopped || gr.hasNextInst(c, base)
			absorbed = true
			break
		}
		ok = gr.nextInst(g, c, base)
	}
	gr.endInst(g, base, mark)
	return absorbed
}

// addGround adds g's instantiation to j as one operand, splicing a junction
// of j's kind in place, and reports whether j is now absorbed.
func (gr *grounding) addGround(g *gnode, j *logic.Junction) bool {
	if g.op != gLeaf && (g.op == gOr) == j.Or {
		return gr.groundInto(g, j)
	}
	r := gr.ground(g)
	return j.AddHashed(r.f, r.h, r.parts)
}

// skipsInstances reports whether skipping the junction operands rest leaves
// leaf instances uncollected.
func (gr *grounding) skipsInstances(rest []*gnode) bool {
	if len(rest) > 0 && len(gr.sub) > 0 {
		return true
	}
	for _, k := range rest {
		if k.quant {
			return true
		}
	}
	return false
}

// instCands is the candidate tuples of one universal: per variable, its
// candidate terms and their renderings, and the tuple count.
type instCands struct {
	terms [][]logic.Term
	keys  [][]string
	count int
}

// trigSet is a universal's variables and, per variable, the select patterns
// it occurs in: what its candidate tuples depend on besides the
// environment, which memoizes tuples per set. A kept universal has its own;
// a spine universal, rebuilt per probe, takes the generation's interned set
// of its content, pairs.
type trigSet struct {
	vars  []string
	trigs map[string][]trigger
	pairs []varTrig
}

// varTrig is one pattern of the variable vars[v].
type varTrig struct {
	v int
	trigger
}

// tuplesFor returns the candidate tuples of the universal g in the current
// environment, which memoizes them per trigger set. A universal nested in
// another is expanded per instance of the outer one, with the triggers of
// its instance under the outer substitution, and nothing is memoized.
func (gr *grounding) tuplesFor(g *gnode) *instCands {
	pl, env := gr.pl, gr.env
	if len(gr.sub) > 0 {
		q := logic.Substitute(g.formula(), gr.sub, nil).(logic.Forall)
		return newInstCands(env, g.vars, pl.s.triggers(q))
	}
	var ts *trigSet
	if g.keep {
		ts = pl.keptTrigs(g)
	} else {
		ts = gr.spineTrigs(g)
	}
	pl.mu.Lock()
	c := env.tuples[ts]
	pl.mu.Unlock()
	if c != nil {
		return c
	}
	c = newInstCands(env, ts.vars, ts.trigs)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := env.tuples[ts]; prev != nil {
		return prev
	}
	if env.tuples == nil {
		env.tuples = map[*trigSet]*instCands{}
	}
	env.tuples[ts] = c
	pl.admit(gr.m)
	return c
}

// keptTrigs returns the trigger set of a kept universal, computed once.
func (pl *groundPlan) keptTrigs(g *gnode) *trigSet {
	pl.mu.Lock()
	ts := g.ts
	pl.mu.Unlock()
	if ts != nil {
		return ts
	}
	ts = &trigSet{vars: g.vars, trigs: triggersOf(g.body.f, g.vars)}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if g.ts == nil {
		g.ts = ts
	}
	return g.ts
}

// spineTrigs returns the interned trigger set of a spine universal: the
// union of its units' triggers for its variables. Candidate selection only
// asks which patterns a variable occurs in, so the union over the body's
// parts is the body's set.
func (gr *grounding) spineTrigs(g *gnode) *trigSet {
	pl, m := gr.pl, gr.m
	gr.pairs = gr.pairs[:0]
	gr.unitPairs(g.body, g.vars, strings.Join(g.vars, ","))
	slices.SortFunc(gr.pairs, func(a, b varTrig) int {
		if a.v != b.v {
			return a.v - b.v
		}
		if c := strings.Compare(a.arr, b.arr); c != 0 {
			return c
		}
		return cmp.Compare(a.offset, b.offset)
	})
	gr.pairs = slices.Compact(gr.pairs)
	h := hashIDs(nil)
	for _, p := range gr.pairs {
		h = (h^uint64(p.v))*fnvPrime ^ uint64(p.offset)
		for i := 0; i < len(p.arr); i++ {
			h = (h ^ uint64(p.arr[i])) * fnvPrime
		}
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, ts := range m.trigs[h] {
		if slices.Equal(ts.vars, g.vars) && slices.Equal(ts.pairs, gr.pairs) {
			return ts
		}
	}
	ts := &trigSet{vars: g.vars, trigs: map[string][]trigger{}, pairs: slices.Clone(gr.pairs)}
	for _, p := range ts.pairs {
		v := g.vars[p.v]
		ts.trigs[v] = append(ts.trigs[v], p.trigger)
	}
	m.trigs[h] = append(m.trigs[h], ts)
	pl.admit(m)
	return ts
}

// unitPairs appends the triggers for vars (joined: vk) of the units below
// the spine node n to gr.pairs.
func (gr *grounding) unitPairs(n *gnode, vars []string, vk string) {
	switch {
	case n.keep:
		for v, ts := range gr.pl.unitTriggers(n, vars, vk) {
			i := slices.Index(vars, v)
			for _, t := range ts {
				gr.pairs = append(gr.pairs, varTrig{i, t})
			}
		}
	case n.op == gAll:
		gr.unitPairs(n.body, vars, vk)
	default:
		for _, k := range n.kids {
			gr.unitPairs(k, vars, vk)
		}
	}
}

func newInstCands(env *instEnv, vars []string, trigs map[string][]trigger) *instCands {
	c := &instCands{count: 1}
	c.terms, c.keys = env.instanceCands(vars, trigs)
	for _, ts := range c.terms {
		c.count *= len(ts)
	}
	return c
}

// firstInst binds g's variables to the first candidate tuple, in
// instantiation order (the first variable varying slowest), extending the
// substitution and its key. It returns the odometer base and the key length
// to restore for endInst, and ok=false when there is no tuple.
func (gr *grounding) firstInst(g *gnode, c *instCands) (base, mark int, ok bool) {
	base, mark = len(gr.odo), len(gr.key)
	for _, ts := range c.terms {
		if len(ts) == 0 {
			return base, mark, false
		}
	}
	gr.key = append(gr.key, 1)
	for i, v := range g.vars {
		gr.odo = append(gr.odo, odometer{mark: len(gr.key)})
		gr.sub[v] = c.terms[i][0]
		gr.key = append(append(gr.key, 0), c.keys[i][0]...)
	}
	return base, mark, true
}

// nextInst advances to the next candidate tuple, reporting false past the
// last one.
func (gr *grounding) nextInst(g *gnode, c *instCands, base int) bool {
	odo := gr.odo[base : base+len(g.vars)]
	i := len(odo) - 1
	for i >= 0 && odo[i].x+1 == len(c.terms[i]) {
		i--
	}
	if i < 0 {
		return false
	}
	odo[i].x++
	gr.key = gr.key[:odo[i].mark]
	for k := i; k < len(odo); k++ {
		if k > i {
			odo[k].x = 0
		}
		odo[k].mark = len(gr.key)
		x := odo[k].x
		gr.sub[g.vars[k]] = c.terms[k][x]
		gr.key = append(append(gr.key, 0), c.keys[k][x]...)
	}
	return true
}

// hasNextInst reports whether a candidate tuple follows the current one.
func (gr *grounding) hasNextInst(c *instCands, base int) bool {
	for i := range c.terms {
		if gr.odo[base+i].x+1 < len(c.terms[i]) {
			return true
		}
	}
	return false
}

// endInst unbinds g's variables after firstInst.
func (gr *grounding) endInst(g *gnode, base, mark int) {
	gr.odo = gr.odo[:base]
	gr.key = gr.key[:mark]
	for _, v := range g.vars {
		delete(gr.sub, v)
	}
}

// unitTriggers returns triggersOf(n.f, vars), cached on the kept node n per
// vars (joined: vk).
func (pl *groundPlan) unitTriggers(n *gnode, vars []string, vk string) map[string][]trigger {
	pl.mu.Lock()
	t, ok := n.trigs[vk]
	pl.mu.Unlock()
	if !ok {
		t = triggersOf(n.f, vars)
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
	pl, m := gr.pl, gr.m
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
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := g.inst[string(gr.key)]; prev != nil {
		return prev
	}
	l.ids = pl.candIDs(m, fb, arr)
	if g.inst == nil {
		g.inst = map[string]*instLeaf{}
	}
	g.inst[string(gr.key)] = l
	pl.admit(m)
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
	pl := newPlan(s)
	gr := pl.acquire()
	p := &piece{f: sn.Formula(), n: sn}
	p.sv = &sval{op: sPiece, f: p.f, h: sn.Hash(), p: p}
	return gr.groundSimplified(p.sv), false, false
}
