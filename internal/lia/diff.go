package lia

import "slices"

// DiffChecker decides, incrementally, conjunctions drawn from one growable
// set of atoms in the difference fragment. Each atom's edge is precomputed
// once, at Extend (its negation's is the reversed edge); Push then asserts
// one atom in one polarity on a stack and Pop takes asserted atoms back, in
// the order of a DPLL(T) search's trail (Cotton & Maler, "Fast and Flexible Difference
// Constraint Propagation for DPLL(T)", SAT 2006).
//
// Node v+1 is the variable of id v; node 0 is the zero node, the implicit
// variable of single-variable atoms. The checker keeps a potential π over
// the nodes that is feasible for every asserted edge u →(w) v, that is
// π(u) + w ≥ π(v). Asserting an edge that π already satisfies costs O(1).
// Otherwise Push lowers π(v) to π(u) + w and relaxes from v over the
// asserted edges; if that would lower π(u) too, the new edge closes a
// negative cycle, which Push returns as the conflict without asserting the
// edge. Otherwise the lowered values are kept, and π is feasible again. Pop
// only truncates the stacks: π stays feasible for every subset of the edges
// it was feasible for, so nothing is recomputed on backtracking.
type DiffChecker struct {
	atoms []diffAtom // each atom's positive form

	// The asserted atoms, in push order, and by node the indices of the
	// asserted edges leaving it (also in push order, so Pop truncates them).
	stack []pushed
	out   [][]int32

	// nodes holds each node's potential and relaxation scratch; epoch
	// stamps the scratch per relaxation, so none is cleared between them.
	nodes []diffNode
	epoch uint32
	queue []int32
	touch []int32
}

// diffNode is a node's potential π and its relaxation scratch: the
// candidate potential and the stack index of the edge that set it, valid
// when mark is the current epoch, and whether it waits in the queue.
type diffNode struct {
	pi, cand     int64
	pred         int32
	mark, queued uint32
}

type diffEdge struct {
	from, to int32
	w        int64
}

// diffAtom is one atom in one polarity: either a constant constraint
// (violated iff k > 0) or a graph edge.
type diffAtom struct {
	isConst bool
	k       int64
	edge    diffEdge
}

// polarity returns the atom itself when positive, else its integer
// negation: k ≤ 0 becomes −k + 1 ≤ 0, and the edge u →(w) v of
// v − u ≤ w becomes v →(−w − 1) u.
func (a diffAtom) polarity(positive bool) diffAtom {
	switch {
	case positive:
		return a
	case a.isConst:
		return diffAtom{isConst: true, k: -a.k + 1}
	}
	return diffAtom{edge: diffEdge{from: a.edge.to, to: a.edge.from, w: -a.edge.w - 1}}
}

// pushed is one asserted atom: its index and, unless it is a constant, its
// polarity's edge.
type pushed struct {
	atom    int32
	isConst bool
	edge    diffEdge
}

// NewDiffChecker preprocesses the atoms (each taken as form ≤ 0 with its
// integer negation as the false polarity). It reports false when any atom
// falls outside the difference fragment, which is polarity-independent: a
// constraint is a difference constraint iff its negation is.
func NewDiffChecker(atoms []Form) (*DiffChecker, bool) {
	d := &DiffChecker{}
	d.grow(0)
	if !d.Extend(atoms) {
		return nil, false
	}
	return d, true
}

// Extend appends atoms to the checker's set, keeping atom indices stable;
// the asserted atoms stay asserted. It reports false, and leaves the checker
// unchanged, when any of them falls outside the difference fragment.
func (d *DiffChecker) Extend(atoms []Form) bool {
	top := int32(-1)
	for _, a := range atoms {
		if !a.isDifference() {
			return false
		}
		for _, t := range a.T {
			top = max(top, t.V)
		}
	}
	d.grow(int(top) + 1)
	d.atoms = slices.Grow(d.atoms, len(atoms))
	for _, a := range atoms {
		if a.IsConst() {
			d.atoms = append(d.atoms, diffAtom{isConst: true, k: a.K})
			continue
		}
		var pos, neg int32 // nodes; 0 (the zero node) when absent
		for _, t := range a.T {
			if t.C == 1 {
				pos = t.V + 1
			} else {
				neg = t.V + 1
			}
		}
		// pos − neg + K ≤ 0  ⇒  edge neg →(−K) pos.
		d.atoms = append(d.atoms, diffAtom{edge: diffEdge{from: neg, to: pos, w: -a.K}})
	}
	return true
}

// grow makes room for the nodes of variables 0..n-1, plus the zero node. A
// new node starts at potential 0, which is feasible: no asserted edge
// touches it yet.
func (d *DiffChecker) grow(n int) {
	if k := n + 1 - len(d.nodes); k > 0 {
		d.nodes = append(d.nodes, make([]diffNode, k)...)
		d.out = append(d.out, make([][]int32, k)...)
	}
}

// Len returns the number of atoms.
func (d *DiffChecker) Len() int { return len(d.atoms) }

// Push asserts atom i (its positive form when positive, else its negation)
// on top of the asserted atoms. When they stay jointly feasible it returns
// nil and the atom is asserted. Otherwise it returns the conflict, a fresh
// sorted list of atom indices, and leaves the atom unasserted: atom i with
// the asserted atoms on the negative cycle its edge closes, or i alone for a
// violated constant. The conflict is infeasible in the polarities asserted.
func (d *DiffChecker) Push(i int, positive bool) []int {
	a := d.atoms[i].polarity(positive)
	if a.isConst {
		if a.k > 0 {
			return []int{i}
		}
		d.stack = append(d.stack, pushed{atom: int32(i), isConst: true})
		return nil
	}
	e := a.edge
	if d.nodes[e.from].pi+e.w < d.nodes[e.to].pi {
		if cycle := d.relax(e); cycle != nil {
			cycle = append(cycle, i)
			slices.Sort(cycle)
			return cycle
		}
	}
	d.stack = append(d.stack, pushed{atom: int32(i), edge: e})
	d.out[e.from] = append(d.out[e.from], int32(len(d.stack)-1))
	return nil
}

// relax restores feasibility for the new edge e, which π violates: it lowers
// π(e.to) to π(e.from) + e.w and relaxes from there, first in, first out,
// over the asserted edges. If e.from would be lowered, e closes a negative
// cycle: relax leaves π as it was and returns the atoms of the cycle's
// asserted edges, with room for e's own. Otherwise it keeps the lowered
// potentials and returns nil.
func (d *DiffChecker) relax(e diffEdge) []int {
	if d.epoch++; d.epoch == 0 {
		for k := range d.nodes {
			d.nodes[k].mark, d.nodes[k].queued = 0, 0
		}
		d.epoch = 1
	}
	ep, nodes := d.epoch, d.nodes
	to := &nodes[e.to]
	to.cand, to.pred, to.mark, to.queued = nodes[e.from].pi+e.w, -1, ep, ep
	touch := append(d.touch[:0], e.to)
	queue := append(d.queue[:0], e.to)
	var conflict []int
	for head := 0; head < len(queue) && conflict == nil; head++ {
		x := queue[head]
		nodes[x].queued = 0
		px := nodes[x].cand
		for _, si := range d.out[x] {
			f := d.stack[si].edge
			ny := &nodes[f.to]
			py := ny.pi
			if ny.mark == ep {
				py = ny.cand
			}
			if px+f.w >= py {
				continue
			}
			if ny.mark != ep {
				ny.mark = ep
				touch = append(touch, f.to)
			}
			ny.cand, ny.pred = px+f.w, si
			if f.to == e.from {
				conflict = d.cycle(e)
				break
			}
			if ny.queued != ep {
				ny.queued = ep
				queue = append(queue, f.to)
			}
		}
	}
	if conflict == nil {
		for _, x := range touch {
			nodes[x].pi = nodes[x].cand
		}
	}
	d.queue, d.touch = queue[:0], touch[:0]
	return conflict
}

// cycle walks the predecessor edges from e.from back to e.to, the path that
// closes a negative cycle with e, and returns their atoms, with room for
// one more.
func (d *DiffChecker) cycle(e diffEdge) []int {
	n := 0
	for x := e.from; x != e.to; x = d.stack[d.nodes[x].pred].edge.from {
		n++
	}
	out := make([]int, 0, n+1)
	for x := e.from; x != e.to; {
		p := &d.stack[d.nodes[x].pred]
		out = append(out, int(p.atom))
		x = p.edge.from
	}
	return out
}

// Pop takes back every asserted atom beyond the first n.
func (d *DiffChecker) Pop(n int) {
	for k := len(d.stack) - 1; k >= n; k-- {
		if p := &d.stack[k]; !p.isConst {
			o := d.out[p.edge.from]
			d.out[p.edge.from] = o[:len(o)-1]
		}
	}
	d.stack = d.stack[:n]
}

// Check decides the conjunction selecting each atom's positive form where
// assign[i] is true and its negation where false, together with the atoms
// already asserted: it pushes the atoms in index order and takes them back
// before returning. Conflict indices refer to atom positions and are sorted;
// the conflict contains the first atom whose push failed. len(assign) must
// equal Len().
func (d *DiffChecker) Check(assign []bool) Result {
	base := len(d.stack)
	defer d.Pop(base)
	for i, v := range assign {
		if conflict := d.Push(i, v); conflict != nil {
			return Result{Conflict: conflict}
		}
	}
	return Result{Sat: true}
}
