package lia

import "slices"

// DiffChecker decides many truth assignments of one growable set of atoms in
// the difference fragment. The DPLL(T) search checks the same atom set
// against every full SAT assignment it reaches, so each atom's positive and
// negated edge are precomputed once, at Extend, and every Check reuses the
// distance/predecessor scratch: the per-check cost is one Bellman–Ford pass,
// which allocates only the conflict it returns. Node v+1 is the variable of id v (node 0 is the
// virtual zero node), so growing the atom set extends the graph in place.
//
// Check runs the exact relaxation sequence of the named checkDifference (same
// edge order, same virtual-source initialization, same conflict-cycle walk,
// and the same round bound: the nodes the atoms use, plus the zero node), so
// the conflicts — and hence the lemmas of a DPLL(T) search — are identical
// to a from-scratch Bellman–Ford over the named forms.
type DiffChecker struct {
	pos, neg []diffAtom
	used     []bool // by node: some atom has an edge at it
	n        int    // used nodes plus the zero node: the round bound

	// scratch reused across Check calls (a DiffChecker is single-goroutine,
	// like the solver run that owns it).
	dist   []int64
	pred   []int32
	sel    []diffEdge
	selIdx []int32
	seen   []bool
	cycle  []int
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

// NewDiffChecker preprocesses the atoms (each taken as form ≤ 0 with its
// integer negation as the false polarity). It reports false when any atom
// falls outside the difference fragment, which is polarity-independent: a
// constraint is a difference constraint iff its negation is.
func NewDiffChecker(atoms []Form) (*DiffChecker, bool) {
	d := &DiffChecker{n: 1, dist: make([]int64, 1), pred: make([]int32, 1), used: make([]bool, 1)}
	if !d.Extend(atoms) {
		return nil, false
	}
	return d, true
}

// Extend appends atoms to the checker's set, keeping atom indices stable.
// It reports false, and leaves the checker unchanged, when any of them falls
// outside the difference fragment.
func (d *DiffChecker) Extend(atoms []Form) bool {
	for _, a := range atoms {
		if !a.isDifference() {
			return false
		}
	}
	for _, a := range atoms {
		if a.IsConst() {
			d.pos = append(d.pos, diffAtom{isConst: true, k: a.K})
			d.neg = append(d.neg, diffAtom{isConst: true, k: -a.K + 1})
			continue
		}
		var pos, neg int32 // nodes; 0 (the zero node) when absent
		for _, t := range a.T {
			if t.C == 1 {
				pos = d.node(t.V)
			} else {
				neg = d.node(t.V)
			}
		}
		// pos − neg + K ≤ 0  ⇒  edge neg →(−K) pos; the negation
		// neg − pos − K + 1 ≤ 0  ⇒  edge pos →(K − 1) neg.
		d.pos = append(d.pos, diffAtom{edge: diffEdge{from: neg, to: pos, w: -a.K}})
		d.neg = append(d.neg, diffAtom{edge: diffEdge{from: pos, to: neg, w: -(-a.K + 1)}})
	}
	d.seen = append(d.seen, make([]bool, len(d.pos)-len(d.seen))...)
	return true
}

// node returns the graph node of variable v, counting it as used.
func (d *DiffChecker) node(v int32) int32 {
	nd := v + 1
	if int(nd) >= len(d.used) {
		grow := int(nd) + 1 - len(d.used)
		d.used = append(d.used, make([]bool, grow)...)
		d.dist = append(d.dist, make([]int64, grow)...)
		d.pred = append(d.pred, make([]int32, grow)...)
	}
	if !d.used[nd] {
		d.used[nd] = true
		d.n++
	}
	return nd
}

// Len returns the number of atoms.
func (d *DiffChecker) Len() int { return len(d.pos) }

// Check decides the conjunction selecting each atom's positive form where
// assign[i] is true and its negation where false. Conflict indices refer to
// atom positions. len(assign) must equal Len().
func (d *DiffChecker) Check(assign []bool) Result {
	// Constant constraints are decided immediately, in atom order.
	for i, v := range assign {
		a := d.atom(i, v)
		if a.isConst && a.k > 0 {
			return Result{Sat: false, Conflict: []int{i}}
		}
	}
	sel, selIdx := d.sel[:0], d.selIdx[:0]
	for i, v := range assign {
		a := d.atom(i, v)
		if a.isConst {
			continue
		}
		sel = append(sel, a.edge)
		selIdx = append(selIdx, int32(i))
	}
	d.sel, d.selIdx = sel, selIdx
	dist, pred := d.dist, d.pred
	for n := range dist {
		dist[n] = 0 // virtual source with 0-weight edges to all nodes
		pred[n] = -1
	}
	relaxed := int32(-1)
	for iter := 0; iter < d.n; iter++ {
		relaxed = -1
		for ei, e := range sel {
			if dist[e.from]+e.w < dist[e.to] {
				dist[e.to] = dist[e.from] + e.w
				pred[e.to] = int32(ei)
				relaxed = e.to
			}
		}
		if relaxed == -1 {
			return Result{Sat: true}
		}
	}
	// Negative cycle: walk predecessors from the last relaxed node.
	node := relaxed
	for i := 0; i < d.n; i++ {
		node = sel[pred[node]].from
	}
	seen := d.seen
	for i := range seen {
		seen[i] = false
	}
	cycle := d.cycle[:0]
	cur := node
	for {
		ei := pred[cur]
		if seen[selIdx[ei]] {
			break
		}
		seen[selIdx[ei]] = true
		cycle = append(cycle, int(selIdx[ei]))
		cur = sel[ei].from
	}
	d.cycle = cycle
	slices.Sort(cycle)
	return Result{Sat: false, Conflict: slices.Clone(cycle)}
}

func (d *DiffChecker) atom(i int, positive bool) *diffAtom {
	if positive {
		return &d.pos[i]
	}
	return &d.neg[i]
}
