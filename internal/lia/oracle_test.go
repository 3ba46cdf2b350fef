package lia

import (
	"slices"
	"sort"
)

// The named reference procedures: Bellman–Ford and Fourier–Motzkin over
// string-keyed Lins, as the solver ran them before its forms went dense.
// They are the oracles the dense checkers are held to exactly — verdict,
// conflict set and truncation — in TestDenseFMMatchesNamed,
// TestDiffCheckerMatchesCheck and FuzzDenseFM. Below them, bellmanFord is
// the dense whole-assignment Bellman–Ford the search ran before the
// difference check went incremental: the batch oracle the incremental
// DiffChecker is held to in verdict (TestIncDiffMatchesBellmanFord,
// FuzzDiffPushPop), and itself held to the named one exactly.

// isDifference reports whether l ≤ 0 is a difference constraint: at most two
// variables, with coefficients {+1, −1} (two vars) or ±1 (one var).
func (l Lin) isDifference() bool {
	switch len(l.Coef) {
	case 0:
		return true
	case 1:
		for _, c := range l.Coef {
			return c == 1 || c == -1
		}
	case 2:
		sum := int64(0)
		for _, c := range l.Coef {
			if c != 1 && c != -1 {
				return false
			}
			sum += c
		}
		return sum == 0
	}
	return false
}

// namedCheck is the named Check: Bellman–Ford when every constraint is a
// difference constraint, Fourier–Motzkin otherwise.
func namedCheck(cons []Lin) Result {
	// Constant constraints are decided immediately.
	for i, c := range cons {
		if c.IsConst() && c.K > 0 {
			return Result{Sat: false, Conflict: []int{i}}
		}
	}
	allDiff := true
	for _, c := range cons {
		if !c.isDifference() {
			allDiff = false
			break
		}
	}
	if allDiff {
		return checkDifference(cons)
	}
	return checkFM(cons)
}

// checkDifference runs Bellman–Ford on the constraint graph. A constraint
// x − y ≤ c is the edge y →(c) x; single-variable constraints use a virtual
// zero node.
func checkDifference(cons []Lin) Result {
	const zero = "$zero"
	type edge struct {
		from, to string
		w        int64
		idx      int
	}
	var edges []edge
	nodes := map[string]bool{zero: true}
	for i, c := range cons {
		if c.IsConst() {
			continue // c.K ≤ 0 verified by caller
		}
		var pos, neg string
		for v, k := range c.Coef {
			if k == 1 {
				pos = v
			} else {
				neg = v
			}
		}
		if pos == "" {
			pos = zero
		}
		if neg == "" {
			neg = zero
		}
		// pos − neg + K ≤ 0  ⇒  pos − neg ≤ −K  ⇒  edge neg →(−K) pos.
		edges = append(edges, edge{from: neg, to: pos, w: -c.K, idx: i})
		nodes[pos] = true
		nodes[neg] = true
	}
	dist := make(map[string]int64, len(nodes))
	pred := make(map[string]int, len(nodes)) // node -> edge index into edges
	for n := range nodes {
		dist[n] = 0 // virtual source with 0-weight edges to all nodes
		pred[n] = -1
	}
	var relaxed string
	for iter := 0; iter < len(nodes); iter++ {
		relaxed = ""
		for ei, e := range edges {
			if dist[e.from]+e.w < dist[e.to] {
				dist[e.to] = dist[e.from] + e.w
				pred[e.to] = ei
				relaxed = e.to
			}
		}
		if relaxed == "" {
			return Result{Sat: true}
		}
	}
	// Negative cycle: walk predecessors from the last relaxed node.
	node := relaxed
	for i := 0; i < len(nodes); i++ {
		node = edges[pred[node]].from
	}
	var conflict []int
	seen := map[int]bool{}
	cur := node
	for {
		ei := pred[cur]
		if seen[ei] {
			break
		}
		seen[ei] = true
		conflict = append(conflict, edges[ei].idx)
		cur = edges[ei].from
	}
	sort.Ints(conflict)
	return Result{Sat: false, Conflict: conflict}
}

// namedFMCons is a derived constraint carrying the set of original indices
// it depends on, so refutations can report a conflict subset.
type namedFMCons struct {
	lin  Lin
	deps map[int]bool
}

// namedFM is one Fourier–Motzkin elimination run over named forms: the
// algorithm of fmState, step for step, with string-keyed tallies and dedup.
type namedFM struct {
	work    []namedFMCons
	seen    map[string]bool // canonical keys of every constraint ever inserted
	lo, hi  map[string]int  // per-variable lower/upper occurrence tallies
	vars    []string        // sorted variable universe, fixed after seeding
	derived int
}

func newNamedFM(capacity int) *namedFM {
	return &namedFM{
		work: make([]namedFMCons, 0, capacity),
		seen: make(map[string]bool, capacity),
		lo:   map[string]int{},
		hi:   map[string]int{},
	}
}

// add inserts a tightened constraint, returning a conflict when it is a
// violated constant. Satisfied constants are dropped, duplicates (by
// canonical key) are dropped — the first occurrence's deps stand for all —
// and the variable tallies are updated in place.
func (st *namedFM) add(l Lin, deps map[int]bool) (conflict []int) {
	if l.IsConst() {
		if l.K > 0 {
			return depsToSlice(deps)
		}
		return nil
	}
	k := l.Key()
	if st.seen[k] {
		return nil
	}
	st.seen[k] = true
	st.work = append(st.work, namedFMCons{lin: l, deps: deps})
	st.tally(l, 1)
	return nil
}

func (st *namedFM) tally(l Lin, d int) {
	for v, c := range l.Coef {
		if c > 0 {
			st.hi[v] += d
		} else {
			st.lo[v] += d
		}
	}
}

// seedVars fixes the sorted variable universe; eliminations only ever shrink
// it, so one sort at the start replaces the per-round sort of the former
// implementation. Call after the initial adds.
func (st *namedFM) seedVars() {
	set := map[string]bool{}
	for _, w := range st.work {
		for v := range w.lin.Coef {
			set[v] = true
		}
	}
	st.vars = sortedVarNames(set)
}

// run eliminates variables until the system is decided. Derived constraints
// are capped across the whole run; hitting the cap reports a Truncated
// conservative "satisfiable" (the solver then treats the literal set as
// consistent, which can only make the verifier fail to find an invariant,
// never accept a bad one).
func (st *namedFM) run() Result {
	for {
		// Pick the variable minimizing (#lower × #upper) to slow growth,
		// first-in-sorted-order on ties; the tallies are already maintained.
		elim, best := "", -1
		for _, v := range st.vars {
			l, h := st.lo[v], st.hi[v]
			if l == 0 && h == 0 {
				continue // eliminated or cancelled out
			}
			if cost := l * h; best == -1 || cost < best {
				best, elim = cost, v
			}
		}
		if elim == "" {
			return Result{Sat: true} // no constraints left
		}
		var lowers, uppers []namedFMCons
		rest := st.work[:0]
		for _, w := range st.work {
			c := w.lin.Coef[elim]
			switch {
			case c > 0:
				uppers = append(uppers, w)
				st.tally(w.lin, -1)
			case c < 0:
				lowers = append(lowers, w)
				st.tally(w.lin, -1)
			default:
				rest = append(rest, w)
			}
		}
		st.work = rest
		for _, lo := range lowers {
			for _, hi := range uppers {
				a := -lo.lin.Coef[elim] // > 0
				b := hi.lin.Coef[elim]  // > 0
				sum := NewLin()
				sum.AddLin(hi.lin, a)
				sum.AddLin(lo.lin, b)
				sum = tightenLin(sum)
				if sum.IsConst() {
					if sum.K > 0 {
						return Result{Sat: false, Conflict: depsToSlice(mergeDeps(lo.deps, hi.deps))}
					}
					continue
				}
				if st.seen[sum.Key()] {
					continue
				}
				st.derived++
				if st.derived > maxDerived {
					return Result{Sat: true, Truncated: true}
				}
				st.add(sum, mergeDeps(lo.deps, hi.deps))
			}
		}
	}
}

func mergeDeps(a, b map[int]bool) map[int]bool {
	out := make(map[int]bool, len(a)+len(b))
	for d := range a {
		out[d] = true
	}
	for d := range b {
		out[d] = true
	}
	return out
}

// checkFM performs Fourier–Motzkin elimination with gcd tightening.
func checkFM(cons []Lin) Result {
	st := newNamedFM(len(cons))
	for i, c := range cons {
		if conflict := st.add(tightenLin(c.Clone()), map[int]bool{i: true}); conflict != nil {
			return Result{Sat: false, Conflict: conflict}
		}
	}
	st.seedVars()
	return st.run()
}

// tightenLin divides a constraint Σc·v + K ≤ 0 by g = gcd of the coefficients,
// rounding the constant down (valid over the integers).
func tightenLin(l Lin) Lin {
	var g int64
	for _, c := range l.Coef {
		g = gcd(g, abs64(c))
	}
	g = abs64(g) // as tighten: a signed gcd would depend on map order
	if g <= 1 {
		return l
	}
	for v := range l.Coef {
		l.Coef[v] /= g
	}
	l.K = ceilDiv(l.K, g) // Σc'·v ≤ −K/g, integer side needs ceil on −K ⇒ ceil on K
	return l
}

func depsToSlice(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func sortedVarNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// bellmanFord decides the conjunction selecting each of d's atoms in the
// polarity assign gives it, ignoring what d has asserted, by one
// Bellman–Ford pass over d's precomputed edges. It runs the exact relaxation
// sequence of the named checkDifference (same edge order, same
// virtual-source initialization, same conflict-cycle walk, and the same
// round bound: the nodes the atoms use, plus the zero node), so its
// conflicts are the named procedure's.
func bellmanFord(d *DiffChecker, assign []bool) Result {
	atom := func(i int) diffAtom { return d.atoms[i].polarity(assign[i]) }
	// Constant constraints are decided immediately, in atom order.
	for i := range assign {
		if a := atom(i); a.isConst && a.k > 0 {
			return Result{Sat: false, Conflict: []int{i}}
		}
	}
	used := make([]bool, len(d.nodes))
	n := 1
	for _, a := range d.atoms {
		for _, nd := range [2]int32{a.edge.from, a.edge.to} {
			if !a.isConst && nd != 0 && !used[nd] {
				used[nd] = true
				n++
			}
		}
	}
	var sel []diffEdge
	var selIdx []int
	for i := range assign {
		if a := atom(i); !a.isConst {
			sel = append(sel, a.edge)
			selIdx = append(selIdx, i)
		}
	}
	dist := make([]int64, len(d.nodes)) // virtual source with 0-weight edges to all nodes
	pred := make([]int, len(d.nodes))
	for i := range pred {
		pred[i] = -1
	}
	relaxed := int32(-1)
	for iter := 0; iter < n; iter++ {
		relaxed = -1
		for ei, e := range sel {
			if dist[e.from]+e.w < dist[e.to] {
				dist[e.to] = dist[e.from] + e.w
				pred[e.to] = ei
				relaxed = e.to
			}
		}
		if relaxed == -1 {
			return Result{Sat: true}
		}
	}
	// Negative cycle: walk predecessors from the last relaxed node.
	node := relaxed
	for i := 0; i < n; i++ {
		node = sel[pred[node]].from
	}
	seen := make([]bool, len(assign))
	var cycle []int
	for cur := node; ; {
		ei := pred[cur]
		if seen[selIdx[ei]] {
			break
		}
		seen[selIdx[ei]] = true
		cycle = append(cycle, selIdx[ei])
		cur = sel[ei].from
	}
	slices.Sort(cycle)
	return Result{Sat: false, Conflict: cycle}
}
