package smt

import (
	"fmt"
	"strings"

	"repro/internal/lia"
	"repro/internal/logic"
)

// prop is a ground propositional formula whose leaves are integer
// inequalities (indices into grounder.forms).
type prop interface{ isProp() }

type pLit struct {
	atom int // index into grounder.forms
	neg  bool
}
type pAnd struct{ ps []prop }
type pOr struct{ ps []prop }
type pConst struct{ val bool }

func (pLit) isProp()   {}
func (pAnd) isProp()   {}
func (pOr) isProp()    {}
func (pConst) isProp() {}

func mkAnd(ps ...prop) prop {
	var out []prop
	for _, p := range ps {
		switch p := p.(type) {
		case pConst:
			if !p.val {
				return pConst{false}
			}
		case pAnd:
			out = append(out, p.ps...)
		default:
			out = append(out, p)
		}
	}
	switch len(out) {
	case 0:
		return pConst{true}
	case 1:
		return out[0]
	}
	return pAnd{ps: out}
}

// propAtoms appends the grounder atom indices mentioned by p to out
// (duplicates included; callers dedup).
func propAtoms(p prop, out []int) []int {
	switch p := p.(type) {
	case pLit:
		out = append(out, p.atom)
	case pAnd:
		for _, q := range p.ps {
			out = propAtoms(q, out)
		}
	case pOr:
		for _, q := range p.ps {
			out = propAtoms(q, out)
		}
	}
	return out
}

func mkOr(ps ...prop) prop {
	var out []prop
	for _, p := range ps {
		switch p := p.(type) {
		case pConst:
			if p.val {
				return pConst{true}
			}
		case pOr:
			out = append(out, p.ps...)
		default:
			out = append(out, p)
		}
	}
	switch len(out) {
	case 0:
		return pConst{false}
	case 1:
		return out[0]
	}
	return pOr{ps: out}
}

// grounder turns a ground first-order formula into a prop over integer
// inequalities: it splits reads over writes, replaces array reads and
// uninterpreted applications with fresh integer variables plus Ackermann
// functional-consistency constraints, and interns each inequality in a
// canonical orientation so that an atom and its negation share one index.
// Its atoms are dense forms over the grounder's own variable table; names
// come back only for lemma records (named).
type grounder struct {
	vars  *lia.Vars
	forms []lia.Form       // atom i is forms[i] ≤ 0
	lits  []prop           // atom i's literal: lits[2i] positive, lits[2i+1] negated
	byKey map[string]int32 // packed form (lia.Form.AppendPacked) → atom

	// occurrences of flattened function applications, grouped by symbol,
	// and how many there are in all.
	occs  map[string][]occurrence
	nOccs int

	// buf and key are the scratch a form is built and packed in.
	buf []lia.Term
	key []byte
}

type occurrence struct {
	args []logic.Term // flattened, pure arithmetic terms
	v    string       // the fresh variable standing for the application
	id   int32        // v's id in the grounder's variable table
}

func newGrounder() *grounder {
	return &grounder{vars: lia.NewVars(), byKey: map[string]int32{}, occs: map[string][]occurrence{}}
}

// internLeq interns the constraint f ≤ 0, returning a literal in canonical
// orientation (an inequality and its integer negation map to one atom).
// When the negation is the canonical side, f's terms are negated in place
// (f is normally scratch, built in g.buf). A hit allocates nothing: each
// atom's two literals are boxed once, when it is interned.
func (g *grounder) internLeq(f lia.Form) prop {
	if f.IsConst() {
		return pConst{val: f.K <= 0}
	}
	neg := 0
	if !g.vars.Positive(f) {
		f = f.NegateTo(f.T)
		neg = 1
	}
	g.key = f.AppendPacked(g.key[:0])
	i, ok := g.byKey[string(g.key)]
	if !ok {
		i = int32(len(g.forms))
		g.forms = append(g.forms, f.Clone())
		g.lits = append(g.lits, pLit{atom: int(i)}, pLit{atom: int(i), neg: true})
		g.byKey[string(g.key)] = i
	}
	return g.lits[2*int(i)+neg]
}

// internLin interns the named constraint l ≤ 0 (a persisted lemma's atom)
// through the grounder's variable table.
func (g *grounder) internLin(l lia.Lin) prop {
	f := g.vars.AppendForm(g.buf[:0], l)
	g.buf = f.T
	return g.internLeq(f)
}

// named returns the atoms with their variables named, as lemma records
// carry them.
func (g *grounder) named(atoms []int) []lia.Lin {
	lins := make([]lia.Lin, len(atoms))
	for k, a := range atoms {
		lins[k] = g.vars.Lin(g.forms[a])
	}
	return lins
}

// addTerm appends c·t, a pure arithmetic term (no selects/applies), to the
// form being built in g.buf, returning the change to its constant.
// Coefficients and constants wrap, as the named forms' arithmetic does.
func (g *grounder) addTerm(t logic.Term, c int64) int64 {
	switch t := t.(type) {
	case logic.Var:
		g.buf = append(g.buf, lia.Term{V: g.vars.ID(t.Name), C: c})
		return 0
	case logic.IntLit:
		return c * t.Val
	case logic.Add:
		return g.addTerm(t.X, c) + g.addTerm(t.Y, c)
	case logic.Sub:
		return g.addTerm(t.X, c) + g.addTerm(t.Y, -c)
	case logic.Mul:
		return g.addTerm(t.X, c*t.C)
	}
	panic(fmt.Sprintf("smt: non-arithmetic term in linear form: %T (%s)", t, t))
}

// formOf builds the linear form of a pure arithmetic term in g.buf.
func (g *grounder) formOf(t logic.Term) lia.Form {
	g.buf = g.buf[:0]
	k := g.addTerm(t, 1)
	return lia.Form{T: lia.Canon(g.buf), K: k}
}

// leq builds the literal for x − y + off ≤ 0 over flattened terms.
func (g *grounder) leq(x, y logic.Term, off int64) prop {
	g.buf = g.buf[:0]
	k := g.addTerm(x, 1) + g.addTerm(y, -1) + off
	return g.internLeq(lia.Form{T: lia.Canon(g.buf), K: k})
}

// relProp encodes a relation over flattened terms as a prop. Equalities
// split into conjunctions of inequalities and disequalities into
// disjunctions of strict inequalities, so the theory solver sees only ≤.
func (g *grounder) relProp(op logic.RelOp, x, y logic.Term) prop {
	switch op {
	case logic.Le:
		return g.leq(x, y, 0)
	case logic.Lt:
		return g.leq(x, y, 1)
	case logic.Ge:
		return g.leq(y, x, 0)
	case logic.Gt:
		return g.leq(y, x, 1)
	case logic.Eq:
		return mkAnd(g.leq(x, y, 0), g.leq(y, x, 0))
	case logic.Neq:
		return mkOr(g.leq(x, y, 1), g.leq(y, x, 1))
	}
	panic("smt: bad RelOp")
}

// termCase is one branch of a read-over-write case split: the pure term Term
// under the guard conditions Conds (atoms to conjoin).
type termCase struct {
	conds []logic.Formula
	term  logic.Term
}

// splitStores expands reads over writes in t, producing one case per branch:
// sel(upd(A,i,v), j) becomes (i=j → v) and (i≠j → sel(A,j)).
func splitStores(t logic.Term) []termCase {
	switch t := t.(type) {
	case logic.Var, logic.IntLit:
		return []termCase{{term: t}}
	case logic.Add:
		return combine2(t.X, t.Y, func(a, b logic.Term) logic.Term { return logic.Add{X: a, Y: b} })
	case logic.Sub:
		return combine2(t.X, t.Y, func(a, b logic.Term) logic.Term { return logic.Sub{X: a, Y: b} })
	case logic.Mul:
		var out []termCase
		for _, c := range splitStores(t.X) {
			out = append(out, termCase{conds: c.conds, term: logic.Mul{C: t.C, X: c.term}})
		}
		return out
	case logic.Apply:
		cases := []termCase{{term: logic.Apply{F: t.F}}}
		for _, arg := range t.Args {
			var next []termCase
			for _, c := range cases {
				for _, ac := range splitStores(arg) {
					app := c.term.(logic.Apply)
					args := append(append([]logic.Term(nil), app.Args...), ac.term)
					next = append(next, termCase{
						conds: append(append([]logic.Formula(nil), c.conds...), ac.conds...),
						term:  logic.Apply{F: t.F, Args: args},
					})
				}
			}
			cases = next
		}
		return cases
	case logic.Select:
		var out []termCase
		for _, ic := range splitStores(t.Idx) {
			out = append(out, selectCases(t.A, ic.term, ic.conds)...)
		}
		return out
	}
	panic(fmt.Sprintf("smt: unknown term %T", t))
}

// selectCases expands sel(a, idx) for a possibly-stored array a.
func selectCases(a logic.Arr, idx logic.Term, conds []logic.Formula) []termCase {
	switch a := a.(type) {
	case logic.ArrVar:
		return []termCase{{conds: conds, term: logic.Sel(a, idx)}}
	case logic.Store:
		var out []termCase
		for _, sc := range splitStores(a.Idx) {
			// Hit: idx = store index → value.
			for _, vc := range splitStores(a.Val) {
				cs := concatConds(conds, sc.conds, vc.conds, logic.EqF(idx, sc.term))
				out = append(out, termCase{conds: cs, term: vc.term})
			}
			// Miss: idx ≠ store index → read the inner array.
			cs := concatConds(conds, sc.conds, nil, logic.NeqF(idx, sc.term))
			out = append(out, selectCases(a.A, idx, cs)...)
		}
		return out
	}
	panic(fmt.Sprintf("smt: unknown array term %T", a))
}

func combine2(x, y logic.Term, mk func(a, b logic.Term) logic.Term) []termCase {
	var out []termCase
	for _, cx := range splitStores(x) {
		for _, cy := range splitStores(y) {
			out = append(out, termCase{
				conds: append(append([]logic.Formula(nil), cx.conds...), cy.conds...),
				term:  mk(cx.term, cy.term),
			})
		}
	}
	return out
}

func concatConds(base, a, b []logic.Formula, extra logic.Formula) []logic.Formula {
	out := make([]logic.Formula, 0, len(base)+len(a)+len(b)+1)
	out = append(out, base...)
	out = append(out, a...)
	out = append(out, b...)
	out = append(out, extra)
	return out
}

// flattenTerm replaces array reads and applications in a store-free term
// with fresh integer variables, recording each occurrence for Ackermann
// constraints, and returns a pure arithmetic term.
func (g *grounder) flattenTerm(t logic.Term) logic.Term {
	switch t := t.(type) {
	case logic.Var, logic.IntLit:
		return t
	case logic.Add:
		return logic.Add{X: g.flattenTerm(t.X), Y: g.flattenTerm(t.Y)}
	case logic.Sub:
		return logic.Sub{X: g.flattenTerm(t.X), Y: g.flattenTerm(t.Y)}
	case logic.Mul:
		return logic.Mul{C: t.C, X: g.flattenTerm(t.X)}
	case logic.Select:
		av, ok := t.A.(logic.ArrVar)
		if !ok {
			panic("smt: store survived splitStores")
		}
		idx := g.flattenTerm(t.Idx)
		return g.registerApp("sel$"+av.Name, []logic.Term{idx})
	case logic.Apply:
		args := make([]logic.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = g.flattenTerm(a)
		}
		return g.registerApp("app$"+t.F, args)
	}
	panic(fmt.Sprintf("smt: unknown term %T", t))
}

// registerApp records an occurrence of sym over the flattened args and
// returns the variable standing for it. The variable's name spells the
// arguments' named keys (lia.Lin.Key), so it is the same in every grounder
// and persists in lemma records.
func (g *grounder) registerApp(sym string, args []logic.Term) logic.Term {
	keys := make([]string, len(args))
	for i, a := range args {
		keys[i] = g.formOf(a).Key(g.vars)
	}
	name := sym + "(" + strings.Join(keys, ";") + ")"
	for _, o := range g.occs[sym] {
		if o.v == name {
			return logic.V(name)
		}
	}
	g.occs[sym] = append(g.occs[sym], occurrence{args: args, v: name, id: g.vars.ID(name)})
	g.nOccs++
	return logic.V(name)
}

// atomProp encodes a ground atom, splitting stores and flattening reads.
func (g *grounder) atomProp(a logic.Atom) prop {
	var branches []prop
	for _, cx := range splitStores(a.X) {
		for _, cy := range splitStores(a.Y) {
			var conj []prop
			for _, cond := range append(append([]logic.Formula(nil), cx.conds...), cy.conds...) {
				conj = append(conj, g.formulaProp(cond))
			}
			x := g.flattenTerm(cx.term)
			y := g.flattenTerm(cy.term)
			conj = append(conj, g.relProp(a.Op, x, y))
			branches = append(branches, mkAnd(conj...))
		}
	}
	return mkOr(branches...)
}

// formulaProp converts a ground, quantifier-free formula to a prop.
func (g *grounder) formulaProp(f logic.Formula) prop {
	switch f := f.(type) {
	case logic.Atom:
		return g.atomProp(f)
	case logic.Bool:
		return pConst{val: f.Val}
	case logic.Not:
		a, ok := f.F.(logic.Atom)
		if !ok {
			panic("smt: non-atomic negation in ground formula")
		}
		return g.atomProp(logic.Atom{Op: a.Op.Negate(), X: a.X, Y: a.Y})
	case logic.And:
		out := make([]prop, len(f.Fs))
		for i, h := range f.Fs {
			out[i] = g.formulaProp(h)
		}
		return mkAnd(out...)
	case logic.Or:
		out := make([]prop, len(f.Fs))
		for i, h := range f.Fs {
			out[i] = g.formulaProp(h)
		}
		return mkOr(out...)
	case logic.Implies:
		a, ok1 := f.A.(logic.Atom)
		b, ok2 := f.B.(logic.Atom)
		if !ok1 || !ok2 {
			panic("smt: implication survived NNF")
		}
		return mkOr(g.atomProp(logic.Atom{Op: a.Op.Negate(), X: a.X, Y: a.Y}), g.atomProp(b))
	}
	panic(fmt.Sprintf("smt: unexpected ground formula %T (%s)", f, f))
}
