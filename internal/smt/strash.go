package smt

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/sat"
)

// strash is a context's memo of its encoded probe formulas, keyed by structure
// over SAT literals: the structural hashing ("strash") of and-inverter
// graphs. encNode resolves a formula bottom-up. An atom is looked up by its
// own structure, a connective by its kind plus the literals its children
// resolved to, and a match reuses the encoded literal. Re-encoding equal
// structure therefore costs one walk with a map probe per node and no
// allocation, and two formulas whose children resolve to the same literals
// share one gate. The memo holds literals, atom index sets and atoms, never
// a whole ground formula, and interns nothing.
type strash struct {
	gates map[uint64]int32 // gateHash of (connective, child literals) → newest entry
	atoms map[uint64]int32 // logic.HashFormula of the atom → newest entry
	ents  []strashEnt
	kids  []sat.Lit    // gate entries' child literals, back to back
	sets  []int        // entries' sorted atom index sets, back to back
	forms []logic.Atom // atom entries' atoms

	// lits and atomSets are encNode's working stacks: a connective's
	// children push their literals and atom sets, and the connective pops
	// them. clause is scratch for a disjunction's definitional clause.
	lits     []sat.Lit
	atomSets [][]int
	clause   []sat.Lit
}

type strashEnt struct {
	lit       sat.Lit
	or        bool
	key, keyN int32 // a gate's children kids[key:key+keyN]; an atom's forms[key]
	set, setN int32 // the entry's atom set sets[set:set+setN]
	prev      int32 // the next-older entry with the same hash, or -1
}

func newStrash() strash {
	return strash{gates: map[uint64]int32{}, atoms: map[uint64]int32{}}
}

// atomSet returns e's atom set, capped so that callers cannot append into
// the arena.
func (m *strash) atomSet(e *strashEnt) []int {
	return m.sets[e.set : e.set+e.setN : e.set+e.setN]
}

// add appends an entry whose atom set is sets[set:] and returns its index.
func (m *strash) add(lit sat.Lit, or bool, key, keyN, set int, prev int32) int32 {
	m.ents = append(m.ents, strashEnt{
		lit: lit, or: or,
		key: int32(key), keyN: int32(keyN),
		set: int32(set), setN: int32(len(m.sets) - set),
		prev: prev,
	})
	return int32(len(m.ents) - 1)
}

func (m *strash) push(l sat.Lit, atoms []int) {
	m.lits = append(m.lits, l)
	m.atomSets = append(m.atomSets, atoms)
}

func (m *strash) pop(mark int) {
	m.lits = m.lits[:mark]
	clear(m.atomSets[mark:])
	m.atomSets = m.atomSets[:mark]
}

// sortAtoms sorts and dedups the atom indices appended to sets since start.
func (m *strash) sortAtoms(start int) {
	m.sets = m.sets[:start+len(sortedDedup(m.sets[start:]))]
}

func gateHash(or bool, kids []sat.Lit) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	if or {
		h = (h ^ 1) * prime
	}
	h = (h ^ uint64(len(kids))) * prime
	for _, k := range kids {
		h = (h ^ uint64(uint32(k))) * prime
	}
	return h
}

// encNode encodes a ground formula into the persistent instance (one-sided
// Tseitin, as in the from-scratch encoder) and returns its literal plus the
// sorted grounder atom indices the encoding mentions. Both are memoized per
// atom and per gate in the context's strash, so atom sets compose bottom-up and
// give each probe its relevant atom subset without re-merging known gates.
func (c *Context) encNode(f logic.Formula) (sat.Lit, []int) {
	m := &c.strash
	switch f := f.(type) {
	case logic.Bool:
		return c.constLit(f.Val), nil
	case logic.Atom:
		return c.encAtom(f)
	case logic.Not:
		a, ok := f.F.(logic.Atom)
		if !ok {
			panic("smt: non-atomic negation in ground formula")
		}
		return c.encAtom(logic.Atom{Op: a.Op.Negate(), X: a.X, Y: a.Y})
	case logic.Implies:
		a, ok1 := f.A.(logic.Atom)
		b, ok2 := f.B.(logic.Atom)
		if !ok1 || !ok2 {
			panic("smt: implication survived NNF")
		}
		mark := len(m.lits)
		m.push(c.encAtom(logic.Atom{Op: a.Op.Negate(), X: a.X, Y: a.Y}))
		m.push(c.encAtom(b))
		return c.encGate(true, mark)
	case logic.And:
		mark := len(m.lits)
		for _, h := range f.Fs {
			m.push(c.encNode(h))
		}
		return c.encGate(false, mark)
	case logic.Or:
		mark := len(m.lits)
		for _, h := range f.Fs {
			m.push(c.encNode(h))
		}
		return c.encGate(true, mark)
	}
	panic(fmt.Sprintf("smt: unexpected ground formula %T (%s)", f, f))
}

// encAtom returns the literal and atom set of a ground atom, grounding it
// (atomProp) only the first time the context meets its structure.
func (c *Context) encAtom(a logic.Atom) (sat.Lit, []int) {
	m := &c.strash
	n := 0
	h := logic.HashFormula(a, &n)
	head, ok := m.atoms[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = m.ents[i].prev {
		if e := &m.ents[i]; logic.FormulaStructEq(a, m.forms[e.key]) {
			return e.lit, m.atomSet(e)
		}
	}
	p := c.g.atomProp(a)
	l := c.enc.encode(p)
	set := len(m.sets)
	m.sets = propAtoms(p, m.sets)
	m.sortAtoms(set)
	m.forms = append(m.forms, a)
	i := m.add(l, false, len(m.forms)-1, 0, set, head)
	m.atoms[h] = i
	return l, m.atomSet(&m.ents[i])
}

// encGate resolves the connective over the child literals pushed since mark
// (a disjunction when or is set, else a conjunction) to a gate, reusing the
// context's gate over the same literals when there is one, and pops them.
func (c *Context) encGate(or bool, mark int) (sat.Lit, []int) {
	m := &c.strash
	kids := m.lits[mark:]
	h := gateHash(or, kids)
	head, ok := m.gates[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = m.ents[i].prev {
		if e := &m.ents[i]; e.or == or && slices.Equal(m.kids[e.key:e.key+e.keyN], kids) {
			m.pop(mark)
			return e.lit, m.atomSet(e)
		}
	}
	gl := sat.MkLit(c.sat.NewVar(), false)
	if or {
		m.clause = append(append(m.clause[:0], gl.Not()), kids...)
		c.sat.AddClause(m.clause...)
	} else {
		for _, k := range kids {
			c.sat.AddClause(gl.Not(), k)
		}
	}
	c.gates.add(c.sat, gl.Var(), kids)
	set := len(m.sets)
	for _, s := range m.atomSets[mark:] {
		m.sets = append(m.sets, s...)
	}
	m.sortAtoms(set)
	key := len(m.kids)
	m.kids = append(m.kids, kids...)
	i := m.add(gl, or, key, len(kids), set, head)
	m.gates[h] = i
	m.pop(mark)
	return gl, m.atomSet(&m.ents[i])
}
