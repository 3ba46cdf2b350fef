// Package lia decides conjunctions of linear integer inequalities. It is the
// theory backend of the lazy SMT solver: the SAT core proposes a set of
// inequality literals, and lia either confirms they are jointly satisfiable
// over the integers or returns a (small) inconsistent subset to be learnt as
// a conflict clause.
//
// Two procedures are used:
//
//   - Difference fragment (x − y ≤ c, x ≤ c): incremental negative-cycle
//     detection (DiffChecker), which is sound and complete for the integers.
//     It asserts atoms one at a time, keeping a feasible potential over the
//     asserted edges, takes them back in stack order, and reports the
//     negative cycle an asserted atom closes as its conflict.
//   - General linear constraints: Fourier–Motzkin elimination with integer
//     (gcd) tightening. Refutations are sound over the integers; a "sat"
//     answer is exact modulo the tightening (at least as strong as the
//     rational relaxation).
//
// The paper's §7 benchmark VCs land in the difference fragment after array
// flattening, so they take the complete path; the scaled-coefficient family
// (ScaledInit and friends) exercises the general path. Both procedures are
// preprocessed checkers for the DPLL(T) search: DiffChecker, asserted atom
// by atom as the search assigns them, for difference atom sets, and
// LinChecker (Fourier–Motzkin over one reused elimination state), checking
// each full assignment, for general ones.
//
// The solver's forms are dense: a Form is sorted (variable id, coefficient)
// terms over one Vars table, which each solving context owns. Lin, the
// string-keyed form, is what the knowledge store persists and what Check
// takes; the named reference procedures the dense ones are tested against,
// and the whole-assignment Bellman–Ford the incremental DiffChecker is
// tested against, live in oracle_test.go.
package lia

import (
	"slices"
	"strconv"
)

// Lin is a linear combination Σ Coef[v]·v + K over integer variables, its
// variables named: the persisted form of a theory lemma's atoms.
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

// Result is the outcome of a consistency check.
type Result struct {
	Sat bool
	// Conflict holds indices (into the input slice) of a jointly
	// inconsistent subset when Sat is false. Every checker returns a fresh
	// slice, which the caller may keep.
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
// subset (exact for the difference fragment). It numbers the names through a
// fresh Vars table and runs the dense procedures the solver's checkers use.
func Check(cons []Lin) Result {
	vars := NewVars()
	forms := make([]Form, len(cons))
	for i, c := range cons {
		forms[i] = vars.Form(c)
	}
	assign := make([]bool, len(forms))
	for i := range assign {
		assign[i] = true
	}
	if d, ok := NewDiffChecker(forms); ok {
		return d.Check(assign)
	}
	return NewLinChecker(vars, forms, nil, 0).Check(assign)
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
