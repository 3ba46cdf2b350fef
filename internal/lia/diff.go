package lia

// DiffChecker decides many truth assignments of one fixed set of atoms in
// the difference fragment. The DPLL(T) search checks the same atom set
// against every full SAT assignment it reaches; Check(cons) rebuilt the
// constraint graph — string-keyed node/distance/predecessor maps plus a
// Negate clone per false atom — on every call, which dominated the solver's
// allocation profile. A DiffChecker is built once per atom set: variables
// are densely numbered (node 0 is the virtual zero node), each atom's
// positive and negated edge are precomputed, and every Check reuses the
// distance/predecessor scratch, so the per-check cost is one
// Bellman–Ford pass with zero allocations.
//
// Check runs the exact relaxation sequence checkDifference runs (same edge
// order, same virtual-source initialization, same conflict-cycle walk), so
// the conflicts — and hence the lemmas of a DPLL(T) search — are identical
// to the Check-per-call implementation.
type DiffChecker struct {
	pos, neg []diffAtom
	n        int // node count, including the virtual zero node 0

	// scratch reused across Check calls (a DiffChecker is single-goroutine,
	// like the solver run that owns it).
	dist   []int64
	pred   []int32
	sel    []diffEdge
	selIdx []int32
	seen   []bool
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

// NewDiffChecker preprocesses the atoms (each taken as lin ≤ 0 with its
// integer negation as the false polarity). It reports false when any atom
// falls outside the difference fragment — callers then keep using Check —
// which is polarity-independent: a constraint is a difference constraint
// iff its negation is.
func NewDiffChecker(atoms []Lin) (*DiffChecker, bool) {
	for _, a := range atoms {
		if !a.isDifference() {
			return nil, false
		}
	}
	d := &DiffChecker{
		pos: make([]diffAtom, len(atoms)),
		neg: make([]diffAtom, len(atoms)),
	}
	vars := map[string]int32{}
	node := func(v string) int32 {
		if v == "" {
			return 0
		}
		id, ok := vars[v]
		if !ok {
			id = int32(len(vars) + 1)
			vars[v] = id
		}
		return id
	}
	conv := func(l Lin) diffAtom {
		if l.IsConst() {
			return diffAtom{isConst: true, k: l.K}
		}
		var pos, neg string
		for v, k := range l.Coef {
			if k == 1 {
				pos = v
			} else {
				neg = v
			}
		}
		// pos − neg + K ≤ 0  ⇒  edge neg →(−K) pos, as in checkDifference.
		return diffAtom{edge: diffEdge{from: node(neg), to: node(pos), w: -l.K}}
	}
	for i, a := range atoms {
		d.pos[i] = conv(a)
		d.neg[i] = conv(a.Negate())
	}
	d.n = len(vars) + 1
	d.dist = make([]int64, d.n)
	d.pred = make([]int32, d.n)
	d.sel = make([]diffEdge, 0, len(atoms))
	d.selIdx = make([]int32, 0, len(atoms))
	d.seen = make([]bool, len(atoms))
	return d, true
}

// Check decides the conjunction selecting each atom's positive form where
// assign[i] is true and its negation where false. Conflict indices refer to
// atom positions. len(assign) must equal the preprocessed atom count.
func (d *DiffChecker) Check(assign []bool) Result {
	// Constant constraints are decided immediately, in atom order (the same
	// pre-pass Check performs on its cons slice).
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
	dist, pred := d.dist, d.pred
	for n := 0; n < d.n; n++ {
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
	var conflict []int
	cur := node
	for {
		ei := pred[cur]
		if seen[selIdx[ei]] {
			break
		}
		seen[selIdx[ei]] = true
		conflict = append(conflict, int(selIdx[ei]))
		cur = sel[ei].from
	}
	sortInts(conflict)
	return Result{Sat: false, Conflict: conflict}
}

func (d *DiffChecker) atom(i int, positive bool) *diffAtom {
	if positive {
		return &d.pos[i]
	}
	return &d.neg[i]
}

func sortInts(xs []int) {
	// Insertion sort: conflicts are tiny (a handful of cycle edges).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
