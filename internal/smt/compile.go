package smt

import (
	"maps"
	"slices"
	"strings"

	"repro/internal/logic"
	"repro/internal/sat"
)

// Compiled skeletons.
//
// A context's probes share one VC skeleton and differ only in the predicates
// filling its holes, so a registered context decides them over one encoding
// that is built once and extended as new pieces appear, instead of grounding
// and encoding every probe:
//
//   - each (hole, predicate) piece gets a selector variable s;
//   - each hole occurrence is encoded once, at its polarity, as a
//     selector-guarded junction: ∧(¬s ∨ q) at a positive occurrence, ∨(s ∧ ¬q)
//     at a negative one, over every predicate the context has seen for the
//     hole (its universe);
//   - each universal's instance is encoded once per candidate tuple, and an
//     env literal E per (universal, tuple set) asserts U ⇒ (¬E ∨ I) for each
//     of the set's instances I.
//
// A probe then assumes the skeleton's root, s for the predicates it selects
// and ¬s for the rest of each universe, and the env literal of each
// universal's tuple set: exactly the tuples the grounding plan would
// instantiate, computed from the plan's memos (units' candidate ids, leaf
// instances' ids, trigger sets) without building a ground formula.
//
// What is compiled depends on the probe's shape: per hole, whether its fill
// simplifies to true, to false, or to neither. Simplify's constant folding is
// compositional, so the shape alone decides which skeleton parts survive the
// probe's simplification; a shape's skeleton is realized once with each
// non-constant hole as a placeholder piece (groundPlan.holePieces) and
// normalized with the placeholders as gHole occurrences that record their
// polarity and binding scope. A quantifier-free predicate takes no fresh
// names, so a probe's units keep the names the shape gave them, and each
// predicate's unit at an occurrence is the one the plan would normalize.
// Deduplication against a skeleton operand keeps the same ids and meaning,
// so the probe's environments are the plan's, round for round.
//
// Two kinds of probe keep the per-probe plan path (groundFill): one that
// selects a predicate with a quantifier or an array equality (pred.quant: its
// normalization hands out @b/@sk names, which would shift every later name
// with the fill), and one whose shape puts a hole under two nested
// universals (shape.nested: its instances depend on the outer tuple too).

// truePiece and falsePiece realize a hole whose fill simplifies to a
// constant.
var truePiece, falsePiece = &piece{f: logic.True, sv: trueVal}, &piece{f: logic.False, sv: falseVal}

// shape is one compiled skeleton of a plan: its realization under one shape
// key, normalized at negative polarity with gHole occurrences.
type shape struct {
	konst, val bool // the realized probe is the constant val
	root       *gnode
	quant      bool
	ids        []int32  // candidate ids of the static units
	tops       []*gnode // universals no other universal encloses
	occs       []*gnode // hole occurrences
	holes      []int    // holes that occur, ascending
	negHole    []bool   // by hole: it occurs at negative polarity
	nested     bool     // a hole occurs under two nested universals
}

type occKey struct {
	o  *gnode
	pr *pred
}

// cidKey names the candidate ids of one universal's instances over one
// tuple set: of its static leaves (o nil), or of pr's unit at its hole
// occurrence o.
type cidKey struct {
	u  *gnode
	c  *instCands
	o  *gnode
	pr *pred
}

// probeShape classifies each hole's predicates into the shape key in
// gr.shapeKey: 'T' or 'F' when the fill simplifies to true or false, 'N'
// otherwise. ok=false when a predicate is quantified.
func (gr *grounding) probeShape(sel [][]*pred) (ok bool) {
	key := gr.shapeKey[:0]
	for _, prs := range sel {
		k := byte('T')
		for _, pr := range prs {
			switch {
			case pr.quant:
				return false
			case pr.konst < 0:
				k = 'F'
			case pr.konst == 0 && k == 'T':
				k = 'N'
			}
		}
		key = append(key, k)
	}
	gr.shapeKey = key
	return true
}

// shapeOf returns the compiled skeleton of the shape key, building it on
// the generation's first use of the key.
func (gr *grounding) shapeOf(key []byte) *shape {
	pl, m := gr.pl, gr.m
	pl.mu.Lock()
	sh := m.shapes[string(key)]
	pl.mu.Unlock()
	if sh != nil {
		return sh
	}
	fills := gr.fills[:0]
	for i, k := range key {
		switch k {
		case 'T':
			fills = append(fills, truePiece)
		case 'F':
			fills = append(fills, falsePiece)
		default:
			fills = append(fills, pl.holePieces[i])
		}
	}
	gr.fills = fills
	sh = &shape{}
	if root := gr.realize(pl.root); root.op == sConst {
		sh.konst, sh.val = true, root.f.(logic.Bool).Val
	} else {
		sh.root = gr.normalize(root, true)
		sh.quant = sh.root.quant
		sh.negHole = make([]bool, len(key))
		gr.sc.b, gr.sc.sk, gr.sc.sig = 0, 0, 0
		gr.beginIDs()
		for _, e := range gr.used {
			gr.addIDs(e.ids)
		}
		sh.ids = slices.Clone(gr.ids)
		clear(gr.used)
		gr.used = gr.used[:0]
		sh.index(sh.root, nil, false)
		slices.Sort(sh.holes)
		sh.holes = slices.Compact(sh.holes)
		for _, u := range sh.tops {
			if !u.keep {
				gr.pairs = gr.pairs[:0]
				gr.unitPairs(u.body, u.vars, strings.Join(u.vars, ","))
				u.pairs = slices.Clone(gr.pairs)
			}
		}
	}
	clear(gr.fills)
	gr.fills = gr.fills[:0]
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := m.shapes[string(key)]; prev != nil {
		return prev
	}
	m.shapes[string(key)] = sh
	pl.admit(m)
	return sh
}

// index records g's top universals and hole occurrences, below the top
// universal u (nil outside one); nested marks a position under a universal
// inside u.
func (sh *shape) index(g *gnode, u *gnode, nested bool) {
	switch g.op {
	case gHole:
		sh.occs = append(sh.occs, g)
		sh.holes = append(sh.holes, g.hole)
		sh.negHole[g.hole] = sh.negHole[g.hole] || g.neg
		if nested {
			sh.nested = true
		} else if u != nil {
			u.occs = append(u.occs, g)
		}
	case gAnd, gOr:
		for _, k := range g.kids {
			sh.index(k, u, nested)
		}
	case gAll:
		switch {
		case u == nil:
			sh.tops = append(sh.tops, g)
			if !g.keep {
				sh.index(g.body, g, false)
			}
		case !g.keep:
			sh.index(g.body, u, true)
		}
	}
}

// holeNode is a compiled skeleton's occurrence of hole i at the current
// polarity and binding scope.
func (gr *grounding) holeNode(i int, neg bool) *gnode {
	sc := &nscope{ren: maps.Clone(gr.sc.ren), univ: slices.Clone(gr.sc.univ), b: gr.sc.b, sk: gr.sc.sk, sig: gr.sc.sig}
	return &gnode{op: gHole, hole: i, neg: neg, sc: sc}
}

// unitAt returns pr's unit at the hole occurrence o: the predicate
// normalized at o's polarity in o's scope, the unit the plan normalizes
// for it there.
func (gr *grounding) unitAt(o *gnode, pr *pred) *unitEntry {
	pl, m := gr.pl, gr.m
	k := occKey{o, pr}
	pl.mu.Lock()
	e := m.occUnits[k]
	pl.mu.Unlock()
	if e != nil {
		return e
	}
	saved := gr.sc
	gr.sc = *o.sc // a quantifier-free predicate binds nothing in it
	e = gr.unit(pr.p, o.neg)
	gr.sc = saved
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev := m.occUnits[k]; prev != nil {
		return prev
	}
	m.occUnits[k] = e
	pl.admit(m)
	return e
}

// finalEnv sets gr.env to the environment the plan grounds the probe sel
// of shape sh in — its last round's — and gr.tsets to the trigger set of
// each top universal. A shape without universals needs neither.
func (gr *grounding) finalEnv(sh *shape, sel [][]*pred) {
	if !sh.quant {
		return
	}
	gr.beginIDs()
	gr.addIDs(sh.ids)
	for _, o := range sh.occs {
		for _, pr := range sel[o.hole] {
			if pr.konst == 0 {
				gr.addIDs(gr.unitAt(o, pr).ids)
			}
		}
	}
	gr.base = append(gr.base[:0], gr.ids...)
	gr.tsets = gr.tsets[:0]
	for _, u := range sh.tops {
		gr.tsets = append(gr.tsets, gr.topTrigs(u, sel))
	}
	env := gr.internEnv()
	for round := 1; round < gr.pl.s.opts.InstRounds; round++ {
		gr.env = env
		gr.beginIDs()
		gr.addIDs(gr.base)
		for i, u := range sh.tops {
			c := gr.tuplesIn(gr.tsets[i])
			gr.addIDs(gr.cidsOf(cidKey{u: u, c: c}))
			for _, o := range u.occs {
				for _, pr := range sel[o.hole] {
					if pr.konst == 0 {
						gr.addIDs(gr.cidsOf(cidKey{u: u, c: c, o: o, pr: pr}))
					}
				}
			}
		}
		next := gr.internEnv()
		if next == env || next.converged(env) {
			break
		}
		env = next
	}
	gr.env = env
}

// topTrigs returns the trigger set of the top universal u under the
// selection sel: a kept universal's own, or a spine universal's static
// pairs plus those of the selected predicates' units in its body.
func (gr *grounding) topTrigs(u *gnode, sel [][]*pred) *trigSet {
	if u.keep {
		return gr.pl.keptTrigs(u)
	}
	gr.pairs = append(gr.pairs[:0], u.pairs...)
	vk := ""
	for _, o := range u.occs {
		for _, pr := range sel[o.hole] {
			if pr.konst != 0 {
				continue
			}
			if vk == "" {
				vk = strings.Join(u.vars, ",")
			}
			for v, ts := range gr.pl.unitTriggers(gr.unitAt(o, pr).g, u.vars, vk) {
				i := slices.Index(u.vars, v)
				for _, t := range ts {
					gr.pairs = append(gr.pairs, varTrig{i, t})
				}
			}
		}
	}
	return gr.internTrigs(u.vars)
}

// cidsOf returns the candidate ids k names, sorted: those of the leaf
// instances the plan grounds over k's tuples, memoized per generation.
func (gr *grounding) cidsOf(k cidKey) []int32 {
	pl, m := gr.pl, gr.m
	pl.mu.Lock()
	ids, ok := m.cids[k]
	pl.mu.Unlock()
	if ok {
		return ids
	}
	body := k.u.body
	if k.o != nil {
		body = gr.unitAt(k.o, k.pr).g
	}
	var out []int32
	base, mark, more := gr.firstInst(k.u, k.c)
	for more {
		out = gr.instIDs(body, out)
		more = gr.nextInst(k.u, k.c, base)
	}
	gr.endInst(k.u, base, mark)
	slices.Sort(out)
	out = slices.Compact(out)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev, ok := m.cids[k]; ok {
		return prev
	}
	m.cids[k] = out
	pl.admit(m)
	return out
}

// instIDs appends the candidate ids of g's leaf instances under the current
// substitution (a hole occurrence's are the probe's, and counted apart).
func (gr *grounding) instIDs(g *gnode, out []int32) []int32 {
	switch g.op {
	case gLeaf:
		if len(gr.sub) > 0 {
			out = append(out, gr.leafInst(g).ids...)
		}
	case gAnd, gOr:
		for _, k := range g.kids {
			out = gr.instIDs(k, out)
		}
	case gAll:
		c := gr.tuplesFor(g)
		base, mark, ok := gr.firstInst(g, c)
		for ok {
			out = gr.instIDs(g.body, out)
			ok = gr.nextInst(g, c, base)
		}
		gr.endInst(g, base, mark)
	}
	return out
}

// compiled is a context's encoding of its compiled skeletons, valid for its
// current SAT instance and its plan's memo generation gen.
type compiled struct {
	gen *planMemo
	// univ lists, per hole, the predicates encoded behind selectors, and
	// sel their selector variables. A predicate new to a hole's universe
	// changes every occurrence's junction, so the encodings below it are
	// rebuilt (roots, univs, insts and envs are cleared).
	univ [][]*pred
	sel  map[selKey]int
	// roots are the shapes' root literals and atom sets; univs the
	// universal gates by (node, outer substitution key); insts the
	// instances by (universal, substitution key); envs the env literals by
	// (top universal, tuple set).
	roots map[*shape]encoded
	univs map[instKey]sat.Lit
	insts map[instKey]encoded
	envs  map[cidKey]int
}

type encoded struct {
	lit   sat.Lit
	atoms []int
}

type instKey struct {
	g   *gnode
	key string
}

// selKey names the selector of the predicate pr in hole's universe.
type selKey struct {
	hole int
	pr   *pred
}

// syncCompiled makes the encoding current for the generation gen and the
// selection sel of the holes sh has: a new generation or SAT instance starts it
// empty, and a predicate new to a hole's universe clears what was built
// over the old universes.
func (c *Context) syncCompiled(gen *planMemo, sh *shape, sel [][]*pred) {
	cs := &c.comp
	if cs.gen != gen || cs.sel == nil {
		*cs = compiled{gen: gen, univ: make([][]*pred, len(sel)), sel: map[selKey]int{}}
	}
	grew := cs.roots == nil
	for _, h := range sh.holes {
		for _, pr := range sel[h] {
			k := selKey{h, pr}
			if _, ok := cs.sel[k]; !ok {
				v := c.sat.NewVar()
				c.gates.add(c.sat, v, nil)
				cs.sel[k] = v
				cs.univ[h] = append(cs.univ[h], pr)
				grew = true
			}
		}
	}
	if grew {
		cs.roots = map[*shape]encoded{}
		cs.univs = map[instKey]sat.Lit{}
		cs.insts = map[instKey]encoded{}
		cs.envs = map[cidKey]int{}
	}
}

// decideCompiled decides the cache-missing probe whose hole i is filled
// with the conjunction of holes[i] as one SolveAssuming call over the
// context's compiled skeleton. decided reports a probe whose shape
// simplifies to a constant (valid is that constant; nothing is solved).
// ok=false asks for the per-probe plan path: a predicate is quantified, the
// shape nests a hole under two universals, or the context is dormant.
func (c *Context) decideCompiled(holes [][]*logic.IFormula) (valid, decided, ok bool) {
	pl := c.groundPlan()
	gr := pl.acquire()
	defer pl.release(gr)
	sel := gr.selOf(holes)
	if !gr.probeShape(sel) {
		return false, false, false
	}
	sh := gr.shapeOf(gr.shapeKey)
	switch {
	case sh.nested:
		return false, false, false
	case sh.konst:
		return sh.val, true, true
	}
	gr.finalEnv(sh, sel)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return false, false, false
	}
	defer c.account()
	c.ready()
	c.syncCompiled(gr.m, sh, sel)
	cs := &c.comp
	root, have := cs.roots[sh]
	if !have {
		root.lit, root.atoms = c.encTree(gr, sh.root)
		cs.roots[sh] = root
	}
	// A selector outside the probe's assumptions is switched off and reads
	// false, which satisfies every clause it guards at a positive
	// occurrence; at a negative one, ¬s must force its H gate false, so a
	// hole with a negative occurrence assumes ¬s for every unselected
	// predicate of its universe.
	assumps := append(c.assumps[:0], root.lit)
	for _, h := range sh.holes {
		for _, pr := range cs.univ[h] {
			switch {
			case slices.Contains(sel[h], pr):
				assumps = append(assumps, sat.MkLit(cs.sel[selKey{h, pr}], false))
			case sh.negHole[h]:
				assumps = append(assumps, sat.MkLit(cs.sel[selKey{h, pr}], true))
			}
		}
	}
	for i, u := range sh.tops {
		assumps = append(assumps, sat.MkLit(c.envLit(gr, u, gr.tuplesIn(gr.tsets[i])), false))
	}
	c.assumps = assumps
	satisfiable, _, ok := c.solve(assumps, root.atoms)
	return !satisfiable, false, ok
}

// encTree encodes the compiled node g under gr's substitution: leaves as
// their (instance's) simplified formula through the strash, junctions as
// strash gates, a hole occurrence as its selector-guarded junction and a
// universal as its gate, whose instances env literals switch on.
func (c *Context) encTree(gr *grounding, g *gnode) (sat.Lit, []int) {
	switch g.op {
	case gLeaf:
		if len(gr.sub) > 0 {
			return c.encNode(gr.leafInst(g).simp.f)
		}
		return c.encNode(gr.pl.leafSimp(g).f)
	case gAnd, gOr:
		m := &c.strash
		mark := len(m.lits)
		for _, k := range g.kids {
			m.push(c.encTree(gr, k))
		}
		return c.encGate(g.op == gOr, mark)
	case gHole:
		return c.encHole(gr, g), nil
	}
	return c.univGate(gr, g), nil
}

// univGate returns the gate of the universal g under gr's substitution,
// creating it on first use. It has no clauses of its own: each env literal
// E adds U ⇒ (¬E ∨ I) for its instances I.
func (c *Context) univGate(gr *grounding, g *gnode) sat.Lit {
	k := instKey{g, string(gr.key)}
	if l, ok := c.comp.univs[k]; ok {
		return l
	}
	v := c.sat.NewVar()
	c.gates.add(c.sat, v, nil)
	l := sat.MkLit(v, false)
	c.comp.univs[k] = l
	return l
}

// encHole encodes the hole occurrence o under gr's substitution as a
// junction over its hole's universe, each predicate behind its selector s:
// at a positive occurrence G ⇒ ∧(¬s ∨ q), at a negative one
// G ⇒ ∨ H with H ⇒ s and H ⇒ q, q being the predicate normalized at the
// occurrence's polarity. Each q is a guarded child, in the probe's cone
// only when its selector is assumed true.
func (c *Context) encHole(gr *grounding, o *gnode) sat.Lit {
	cs := &c.comp
	v := c.sat.NewVar()
	gl := sat.MkLit(v, false)
	univ := cs.univ[o.hole]
	if !o.neg {
		edges := make([]guardEdge, 0, len(univ))
		for _, pr := range univ {
			s := cs.sel[selKey{o.hole, pr}]
			q, atoms := c.encTree(gr, gr.unitAt(o, pr).g)
			c.sat.AddClause(gl.Not(), sat.MkLit(s, true), q)
			edges = append(edges, guardEdge{guard: int32(s), kid: q, atoms: atoms})
		}
		c.gates.add(c.sat, v, nil)
		c.gates.guard(v, edges)
		return gl
	}
	clause := make([]sat.Lit, 0, len(univ)+1)
	clause = append(clause, gl.Not())
	for _, pr := range univ {
		s := cs.sel[selKey{o.hole, pr}]
		q, atoms := c.encTree(gr, gr.unitAt(o, pr).g)
		h := c.sat.NewVar()
		hl := sat.MkLit(h, false)
		c.sat.AddClause(hl.Not(), sat.MkLit(s, false))
		c.sat.AddClause(hl.Not(), q)
		c.gates.add(c.sat, h, nil)
		c.gates.guard(h, []guardEdge{{guard: int32(s), kid: q, atoms: atoms}})
		clause = append(clause, hl)
	}
	c.sat.AddClause(clause...)
	c.gates.add(c.sat, v, clause[1:])
	return gl
}

// envLit returns the env literal of the top universal u over the tuple set
// cands (gr.env being its environment), encoding it on first use: for
// every tuple, and every tuple of a universal nested in its instance,
// U ⇒ (¬E ∨ I), with I a guarded child of E.
func (c *Context) envLit(gr *grounding, u *gnode, cands *instCands) int {
	k := cidKey{u: u, c: cands}
	if e, ok := c.comp.envs[k]; ok {
		return e
	}
	e := c.sat.NewVar()
	var edges []guardEdge
	c.instances(gr, u, c.univGate(gr, u), cands, e, &edges)
	c.gates.add(c.sat, e, nil)
	c.gates.guard(e, edges)
	c.comp.envs[k] = e
	return e
}

// instances asserts U ⇒ (¬E ∨ I) for the instance I of each of the
// universal g's tuples in cands, encoding instances on first use, and
// recurses into the universals nested in them.
func (c *Context) instances(gr *grounding, g *gnode, u sat.Lit, cands *instCands, e int, edges *[]guardEdge) {
	base, mark, ok := gr.firstInst(g, cands)
	for ok {
		k := instKey{g, string(gr.key)}
		in, have := c.comp.insts[k]
		if !have {
			in.lit, in.atoms = c.encTree(gr, g.body)
			c.comp.insts[k] = in
		}
		c.sat.AddClause(u.Not(), sat.MkLit(e, true), in.lit)
		*edges = append(*edges, guardEdge{guard: int32(e), kid: in.lit, atoms: in.atoms})
		c.nestedInstances(gr, g.body, e, edges)
		ok = gr.nextInst(g, cands, base)
	}
	gr.endInst(g, base, mark)
}

// nestedInstances runs instances for each universal in n, an instance body
// under gr's substitution.
func (c *Context) nestedInstances(gr *grounding, n *gnode, e int, edges *[]guardEdge) {
	switch n.op {
	case gAnd, gOr:
		for _, k := range n.kids {
			c.nestedInstances(gr, k, e, edges)
		}
	case gAll:
		c.instances(gr, n, c.univGate(gr, n), gr.tuplesFor(n), e, edges)
	}
}
