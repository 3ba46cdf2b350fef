package lia

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
)

// Vars numbers variable names densely: the first name a table sees gets id
// 0, the next 1, and so on. Every solving context (and every from-scratch
// decision) owns one, through its grounder; its Forms, checkers and
// Fourier–Motzkin runs name variables by id, and names come back only where
// a form leaves the context (lemma records for the knowledge store) or where
// the name order itself matters (orientation, elimination tie-breaks). A
// table is not safe for concurrent use; it belongs to the goroutine that
// owns its context.
type Vars struct {
	names []string
	ids   map[string]int32
}

// NewVars returns an empty table.
func NewVars() *Vars { return &Vars{ids: map[string]int32{}} }

// ID returns the id of name, numbering it on first sight.
func (vs *Vars) ID(name string) int32 {
	if id, ok := vs.ids[name]; ok {
		return id
	}
	id := int32(len(vs.names))
	vs.names = append(vs.names, name)
	vs.ids[name] = id
	return id
}

// Len returns how many names the table holds.
func (vs *Vars) Len() int { return len(vs.names) }

// Term is one coefficient·variable summand of a Form.
type Term struct {
	V int32 // variable id in the owning Vars
	C int64 // never zero
}

// Form is a linear combination Σ T[i].C·T[i].V + K over the variables of one
// Vars table: the dense counterpart of Lin. T is sorted by variable id and
// holds no zero coefficient, so equal forms have equal terms and one packed
// key (AppendPacked).
type Form struct {
	T []Term
	K int64
}

// IsConst reports whether the form has no variables.
func (f Form) IsConst() bool { return len(f.T) == 0 }

// Clone returns a copy that shares no memory with f.
func (f Form) Clone() Form { return Form{T: slices.Clone(f.T), K: f.K} }

// NegateTo returns the integer negation of f ≤ 0, −f + 1 ≤ 0, with its terms
// written to dst[:0]'s backing array. dst may alias f.T: negation keeps the
// term order, so each term is read before it is overwritten.
func (f Form) NegateTo(dst []Term) Form {
	dst = dst[:0]
	for _, t := range f.T {
		dst = append(dst, Term{V: t.V, C: -t.C})
	}
	return Form{T: dst, K: -f.K + 1}
}

// Negate returns the integer negation of f ≤ 0 in fresh memory.
func (f Form) Negate() Form { return f.NegateTo(make([]Term, 0, len(f.T))) }

// Canon sorts ts by variable, adds up the coefficients of repeated
// variables and drops the zero sums, in place: what is left is a Form's T.
// Sums wrap, as Lin.AddVar's do, so the result does not depend on the
// order the terms were appended in.
func Canon(ts []Term) []Term {
	slices.SortFunc(ts, func(a, b Term) int { return int(a.V) - int(b.V) })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].V == t.V {
			out[n-1].C += t.C
			if out[n-1].C == 0 {
				out = out[:n-1]
			}
			continue
		}
		if t.C != 0 {
			out = append(out, t)
		}
	}
	return out
}

// AppendPacked appends f's packed key to b: twelve bytes per term (variable
// id, coefficient) in term order, then eight for K. Two forms over one
// table have equal keys iff they are equal.
func (f Form) AppendPacked(b []byte) []byte {
	for _, t := range f.T {
		b = binary.LittleEndian.AppendUint32(b, uint32(t.V))
		b = binary.LittleEndian.AppendUint64(b, uint64(t.C))
	}
	return binary.LittleEndian.AppendUint64(b, uint64(f.K))
}

// Key returns the named key of f, byte-identical to vars.Lin(f).Key().
func (f Form) Key(vars *Vars) string {
	var byName [8]Term
	ts := append(byName[:0], f.T...)
	slices.SortFunc(ts, func(a, b Term) int { return strings.Compare(vars.names[a.V], vars.names[b.V]) })
	var keyBuf [128]byte
	b := keyBuf[:0]
	for _, t := range ts {
		b = appendSigned(b, t.C)
		b = append(b, '*')
		b = append(b, vars.names[t.V]...)
	}
	return string(appendSigned(b, f.K))
}

// Positive reports whether f, rather than its negation, is the canonical
// orientation of the atom f ≤ 0 — the named rule Key() <= Negate().Key().
// Both keys start with the sign of the coefficient of f's name-least
// variable and '+' sorts before '-', so the rule keeps f exactly when that
// coefficient is positive; only a MinInt64 coefficient, its own negation,
// needs the keys compared in full. f must not be constant.
func (vs *Vars) Positive(f Form) bool {
	least := f.T[0]
	for _, t := range f.T[1:] {
		if vs.names[t.V] < vs.names[least.V] {
			least = t
		}
	}
	if least.C != math.MinInt64 {
		return least.C > 0
	}
	return f.Key(vs) <= f.Negate().Key(vs)
}

// AppendForm appends l's terms, numbered through the table, to dst and
// returns the form they make.
func (vs *Vars) AppendForm(dst []Term, l Lin) Form {
	start := len(dst)
	for v, c := range l.Coef {
		dst = append(dst, Term{V: vs.ID(v), C: c})
	}
	return Form{T: Canon(dst[start:]), K: l.K}
}

// Form returns l over the table in fresh memory.
func (vs *Vars) Form(l Lin) Form { return vs.AppendForm(make([]Term, 0, len(l.Coef)), l) }

// Lin returns f with its variables named: the persisted form of a lemma.
func (vs *Vars) Lin(f Form) Lin {
	l := Lin{Coef: make(map[string]int64, len(f.T)), K: f.K}
	for _, t := range f.T {
		l.Coef[vs.names[t.V]] = t.C
	}
	return l
}

// isDifference reports whether f ≤ 0 is a difference constraint: at most two
// variables, with coefficients {+1, −1} (two vars) or ±1 (one var).
func (f Form) isDifference() bool {
	switch len(f.T) {
	case 0:
		return true
	case 1:
		return f.T[0].C == 1 || f.T[0].C == -1
	case 2:
		a, b := f.T[0].C, f.T[1].C
		return (a == 1 && b == -1) || (a == -1 && b == 1)
	}
	return false
}

// tighten divides the constraint Σc·v + k ≤ 0 held in ts (in place) by g,
// the gcd of the coefficients, rounding the constant up (valid over the
// integers), and returns the new constant. g is taken positive: Euclid's
// remainders keep the dividend's sign, so with a MinInt64 coefficient (whose
// absolute value wraps negative) a signed gcd would depend on the order the
// coefficients were visited in.
func tighten(ts []Term, k int64) int64 {
	var g int64
	for _, t := range ts {
		g = gcd(g, abs64(t.C))
	}
	g = abs64(g)
	if g <= 1 {
		return k
	}
	for i := range ts {
		ts[i].C /= g
	}
	return ceilDiv(k, g)
}
