// Package lia decides conjunctions of linear integer inequalities. It is the
// theory backend of the lazy SMT solver: the SAT core proposes a set of
// inequality literals, and lia either confirms they are jointly satisfiable
// over the integers or returns a (small) inconsistent subset to be learnt as
// a conflict clause.
//
// Two procedures are used:
//
//   - Difference fragment (x − y ≤ c, x ≤ c): Bellman–Ford negative-cycle
//     detection, which is sound and complete for the integers and yields the
//     exact cycle as a minimal conflict.
//   - General linear constraints: Fourier–Motzkin elimination with integer
//     (gcd) tightening. Refutations are sound over the integers; a "sat"
//     answer is exact modulo the tightening (at least as strong as the
//     rational relaxation).
//
// The paper's §7 benchmark VCs land in the difference fragment after array
// flattening, so they take the complete path; the scaled-coefficient family
// (ScaledInit and friends) exercises the general path. Both procedures have
// a preprocessed, check-per-assignment form for the DPLL(T) search: DiffChecker
// for difference atom sets and LinChecker (persistent Fourier–Motzkin with a
// conflict-cube store) for general ones.
package lia

import (
	"slices"
	"sort"
	"strconv"
)

// Lin is a linear combination Σ Coef[v]·v + K over integer variables.
type Lin struct {
	Coef map[string]int64
	K    int64
}

// NewLin returns the zero linear form.
func NewLin() Lin { return Lin{Coef: map[string]int64{}} }

// Clone returns a deep copy.
func (l Lin) Clone() Lin {
	c := Lin{Coef: make(map[string]int64, len(l.Coef)), K: l.K}
	for v, k := range l.Coef {
		c.Coef[v] = k
	}
	return c
}

// AddVar adds c·v to the form, dropping the entry if it cancels.
func (l *Lin) AddVar(v string, c int64) {
	if c == 0 {
		return
	}
	n := l.Coef[v] + c
	if n == 0 {
		delete(l.Coef, v)
	} else {
		l.Coef[v] = n
	}
}

// AddLin adds c·m to l.
func (l *Lin) AddLin(m Lin, c int64) {
	for v, k := range m.Coef {
		l.AddVar(v, c*k)
	}
	l.K += c * m.K
}

// Scale multiplies the form by c.
func (l *Lin) Scale(c int64) {
	for v := range l.Coef {
		l.Coef[v] *= c
	}
	l.K *= c
}

// IsConst reports whether the form has no variables.
func (l Lin) IsConst() bool { return len(l.Coef) == 0 }

// Key returns a canonical string for the form, usable as a map key.
func (l Lin) Key() string {
	// Both buffers live on the stack for the usual small forms, so the
	// returned string is the only allocation.
	var varBuf [8]string
	vars := varBuf[:0]
	for v := range l.Coef {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	var keyBuf [128]byte
	b := keyBuf[:0]
	for _, v := range vars {
		b = appendSigned(b, l.Coef[v])
		b = append(b, '*')
		b = append(b, v...)
	}
	return string(appendSigned(b, l.K))
}

// appendSigned appends x in fmt's %+d form: the sign is always written.
func appendSigned(b []byte, x int64) []byte {
	if x >= 0 {
		b = append(b, '+')
	}
	return strconv.AppendInt(b, x, 10)
}

func (l Lin) String() string { return l.Key() + " <= 0" }

// Negate returns the integer negation of l ≤ 0, i.e. −l + 1 ≤ 0.
func (l Lin) Negate() Lin {
	n := l.Clone()
	n.Scale(-1)
	n.K++
	return n
}

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

// Result is the outcome of a consistency check.
type Result struct {
	Sat bool
	// Conflict holds indices (into the input slice) of a jointly
	// inconsistent subset when Sat is false.
	Conflict []int
	// Truncated reports that the Fourier–Motzkin derived-constraint cap was
	// hit, so Sat=true is a conservative answer rather than a decision.
	// Callers that care about completeness (benchtab, /v1/stats) surface it;
	// soundness is unaffected (a conservative "satisfiable" only ever makes a
	// verifier fail to prove, never accept a bad invariant).
	Truncated bool
}

// Check decides whether the conjunction of cons[i] ≤ 0 is satisfiable over
// the integers. When unsatisfiable, Result.Conflict names an inconsistent
// subset (exact for the difference fragment).
func Check(cons []Lin) Result {
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

// fmCons is a derived constraint carrying the set of original indices it
// depends on, so refutations can report a conflict subset.
type fmCons struct {
	lin  Lin
	deps map[int]bool
}

// maxDerived caps the number of derived constraints one Fourier–Motzkin run
// may create; hitting it returns a Truncated conservative "satisfiable".
const maxDerived = 20000

// fmState is one Fourier–Motzkin elimination run. Per-variable lower/upper
// occurrence counts are maintained incrementally as constraints enter and
// leave the working set (the former implementation rescanned every
// constraint for every variable per round, and re-sorted the variable set
// each round), derived sums are gcd-tightened and deduplicated against every
// constraint ever inserted before they are admitted, and constant
// constraints are decided at insertion instead of carried forever.
type fmState struct {
	work    []fmCons
	seen    map[string]bool // canonical keys of every constraint ever inserted
	lo, hi  map[string]int  // per-variable lower/upper occurrence tallies
	vars    []string        // sorted variable universe, fixed after seeding
	derived int
}

func newFMState(capacity int) *fmState {
	return &fmState{
		work: make([]fmCons, 0, capacity),
		seen: make(map[string]bool, capacity),
		lo:   map[string]int{},
		hi:   map[string]int{},
	}
}

// add inserts a tightened constraint, returning a conflict when it is a
// violated constant. Satisfied constants are dropped, duplicates (by
// canonical key) are dropped — the first occurrence's deps stand for all —
// and the variable tallies are updated in place.
func (st *fmState) add(l Lin, deps map[int]bool) (conflict []int) {
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
	st.work = append(st.work, fmCons{lin: l, deps: deps})
	st.tally(l, 1)
	return nil
}

func (st *fmState) tally(l Lin, d int) {
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
func (st *fmState) seedVars() {
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
func (st *fmState) run() Result {
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
		var lowers, uppers []fmCons
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
				sum = tighten(sum)
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
	st := newFMState(len(cons))
	for i, c := range cons {
		if conflict := st.add(tighten(c.Clone()), map[int]bool{i: true}); conflict != nil {
			return Result{Sat: false, Conflict: conflict}
		}
	}
	st.seedVars()
	return st.run()
}

// tighten divides a constraint Σc·v + K ≤ 0 by g = gcd of the coefficients,
// rounding the constant down (valid over the integers).
func tighten(l Lin) Lin {
	var g int64
	for _, c := range l.Coef {
		g = gcd(g, abs64(c))
	}
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

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}
