package lia

import (
	"slices"
	"strings"
)

// maxDerived caps the number of derived constraints one Fourier–Motzkin run
// may create; hitting it returns a Truncated conservative "satisfiable".
const maxDerived = 20000

// fmRec is one constraint of a Fourier–Motzkin run, Σ terms + k ≤ 0, with
// the sorted input indices it was derived from. Terms and deps live in the
// run's arenas.
type fmRec struct {
	t, tn int32 // terms[t : t+tn]
	d, dn int32 // deps[d : d+dn]
	k     int64
	prev  int32 // the next-older record with the same hash, or -1
}

// fmState is the Fourier–Motzkin engine over the forms of one Vars table,
// reused run after run. Per-variable lower/upper occurrence tallies are
// slices indexed by variable id, maintained as constraints enter and leave
// the working set; derived sums are gcd-tightened and deduplicated against
// every constraint ever inserted in the run (a hash over the packed terms,
// chained through the records) before they are admitted; constant
// constraints are decided at insertion instead of carried forever. Ties in
// the choice of the variable to eliminate go to the name-least one, so a
// run repeats the named engine's elimination order step for step.
type fmState struct {
	vars  *Vars
	terms []Term
	deps  []int32
	recs  []fmRec
	seen  map[uint64]int32 // hash of (terms, k) → newest record
	work  []int32          // records in the working set
	lo    []int            // by variable id: working constraints with a negative coefficient
	hi    []int            // … and with a positive one
	univ  []int32          // the run's variables in name order, fixed by seedVars
	mark  []bool           // by variable id, seedVars' scratch

	lowers, uppers []int32
	sum            []Term
	dep            []int32
	derived        int
}

// reset empties the state for a new run over vars' current variables.
func (st *fmState) reset(vars *Vars) {
	for _, w := range st.work {
		for _, t := range st.recTerms(w) {
			st.lo[t.V], st.hi[t.V] = 0, 0
		}
	}
	st.vars = vars
	if n := vars.Len(); len(st.lo) < n {
		st.lo = append(st.lo, make([]int, n-len(st.lo))...)
		st.hi = append(st.hi, make([]int, n-len(st.hi))...)
		st.mark = append(st.mark, make([]bool, n-len(st.mark))...)
	}
	st.terms, st.deps, st.recs, st.work = st.terms[:0], st.deps[:0], st.recs[:0], st.work[:0]
	st.univ = st.univ[:0]
	if st.seen == nil || len(st.seen) > 4096 {
		// A run that derived thousands of constraints leaves a table whose
		// clearing would cost every later small run its whole bucket array.
		st.seen = map[uint64]int32{}
	} else {
		clear(st.seen)
	}
	st.derived = 0
}

func (st *fmState) recTerms(r int32) []Term {
	rc := &st.recs[r]
	return st.terms[rc.t : rc.t+rc.tn]
}

func (st *fmState) recDeps(r int32) []int32 {
	rc := &st.recs[r]
	return st.deps[rc.d : rc.d+rc.dn]
}

// coef returns record r's coefficient of v (0 when absent).
func (st *fmState) coef(r int32, v int32) int64 {
	for _, t := range st.recTerms(r) {
		if t.V == v {
			return t.C
		}
		if t.V > v {
			break
		}
	}
	return 0
}

func hashForm(ts []Term, k int64) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325) ^ uint64(k)*0x9e3779b97f4a7c15
	for _, t := range ts {
		h = (h ^ uint64(uint32(t.V))) * prime
		h = (h ^ uint64(t.C)) * prime
	}
	return h ^ h>>29
}

// find reports whether the run already inserted the constraint (ts, k) of
// hash h.
func (st *fmState) find(h uint64, ts []Term, k int64) bool {
	i, ok := st.seen[h]
	for ok && i >= 0 {
		if r := &st.recs[i]; r.k == k && slices.Equal(st.terms[r.t:r.t+r.tn], ts) {
			return true
		}
		i = st.recs[i].prev
	}
	return false
}

// insert admits the non-constant constraint (ts, k) of hash h, not yet
// inserted, with its deps, into the working set.
func (st *fmState) insert(h uint64, ts []Term, k int64, deps []int32) {
	prev, ok := st.seen[h]
	if !ok {
		prev = -1
	}
	r := int32(len(st.recs))
	st.recs = append(st.recs, fmRec{
		t: int32(len(st.terms)), tn: int32(len(ts)),
		d: int32(len(st.deps)), dn: int32(len(deps)),
		k: k, prev: prev,
	})
	st.terms = append(st.terms, ts...)
	st.deps = append(st.deps, deps...)
	st.seen[h] = r
	st.work = append(st.work, r)
	st.tally(r, 1)
}

// add inserts a tightened constraint, returning a conflict when it is a
// violated constant. Satisfied constants are dropped, duplicates are
// dropped — the first occurrence's deps stand for all — and the variable
// tallies are updated in place.
func (st *fmState) add(f Form, deps []int32) (conflict []int) {
	if f.IsConst() {
		if f.K > 0 {
			return depInts(deps)
		}
		return nil
	}
	h := hashForm(f.T, f.K)
	if !st.find(h, f.T, f.K) {
		st.insert(h, f.T, f.K, deps)
	}
	return nil
}

func (st *fmState) tally(r int32, d int) {
	for _, t := range st.recTerms(r) {
		if t.C > 0 {
			st.hi[t.V] += d
		} else {
			st.lo[t.V] += d
		}
	}
}

// seedVars fixes the run's variable universe in name order; eliminations
// only ever shrink it. Call after the initial adds.
func (st *fmState) seedVars() {
	for _, w := range st.work {
		for _, t := range st.recTerms(w) {
			if !st.mark[t.V] {
				st.mark[t.V] = true
				st.univ = append(st.univ, t.V)
			}
		}
	}
	for _, v := range st.univ {
		st.mark[v] = false
	}
	names := st.vars.names
	slices.SortFunc(st.univ, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
}

// run eliminates variables until the system is decided. Derived constraints
// are capped across the whole run; hitting the cap reports a Truncated
// conservative "satisfiable" (the solver then treats the literal set as
// consistent, which can only make the verifier fail to find an invariant,
// never accept a bad one).
func (st *fmState) run() Result {
	for {
		// Pick the variable minimizing (#lower × #upper) to slow growth,
		// first in name order on ties; the tallies are already maintained.
		elim, best := int32(-1), -1
		for _, v := range st.univ {
			l, h := st.lo[v], st.hi[v]
			if l == 0 && h == 0 {
				continue // eliminated or cancelled out
			}
			if cost := l * h; best == -1 || cost < best {
				best, elim = cost, v
			}
		}
		if elim < 0 {
			return Result{Sat: true} // no constraints left
		}
		lowers, uppers := st.lowers[:0], st.uppers[:0]
		rest := st.work[:0]
		for _, w := range st.work {
			c := st.coef(w, elim)
			switch {
			case c > 0:
				uppers = append(uppers, w)
				st.tally(w, -1)
			case c < 0:
				lowers = append(lowers, w)
				st.tally(w, -1)
			default:
				rest = append(rest, w)
			}
		}
		st.work = rest
		st.lowers, st.uppers = lowers, uppers
		for _, lo := range lowers {
			for _, hi := range uppers {
				a := -st.coef(lo, elim) // > 0
				b := st.coef(hi, elim)  // > 0
				k := st.combine(hi, a, lo, b)
				k = tighten(st.sum, k)
				if len(st.sum) == 0 {
					if k > 0 {
						return Result{Sat: false, Conflict: depInts(st.mergeDeps(lo, hi))}
					}
					continue
				}
				h := hashForm(st.sum, k)
				if st.find(h, st.sum, k) {
					continue
				}
				st.derived++
				if st.derived > maxDerived {
					return Result{Sat: true, Truncated: true}
				}
				st.insert(h, st.sum, k, st.mergeDeps(lo, hi))
			}
		}
	}
}

// combine writes a·hi + b·lo into st.sum and returns its constant. Products
// and sums wrap and zero sums are dropped, as the named Lin.AddLin does.
func (st *fmState) combine(hi int32, a int64, lo int32, b int64) int64 {
	x, y := st.recTerms(hi), st.recTerms(lo)
	sum := st.sum[:0]
	for len(x) > 0 || len(y) > 0 {
		var t Term
		switch {
		case len(y) == 0 || (len(x) > 0 && x[0].V < y[0].V):
			t = Term{V: x[0].V, C: a * x[0].C}
			x = x[1:]
		case len(x) == 0 || y[0].V < x[0].V:
			t = Term{V: y[0].V, C: b * y[0].C}
			y = y[1:]
		default:
			t = Term{V: x[0].V, C: a*x[0].C + b*y[0].C}
			x, y = x[1:], y[1:]
		}
		if t.C != 0 {
			sum = append(sum, t)
		}
	}
	st.sum = sum
	return a*st.recs[hi].k + b*st.recs[lo].k
}

// mergeDeps writes the sorted union of two records' deps into st.dep.
func (st *fmState) mergeDeps(p, q int32) []int32 {
	x, y := st.recDeps(p), st.recDeps(q)
	out := st.dep[:0]
	for len(x) > 0 || len(y) > 0 {
		switch {
		case len(y) == 0 || (len(x) > 0 && x[0] < y[0]):
			out, x = append(out, x[0]), x[1:]
		case len(x) == 0 || y[0] < x[0]:
			out, y = append(out, y[0]), y[1:]
		default:
			out, x, y = append(out, x[0]), x[1:], y[1:]
		}
	}
	st.dep = out
	return out
}

func depInts(deps []int32) []int {
	out := make([]int, len(deps))
	for i, d := range deps {
		out[i] = int(d)
	}
	return out
}
