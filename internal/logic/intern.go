package logic

import (
	"sync/atomic"
)

// Hash-consing for formulas and terms.
//
// Formula and Term values stay plain immutable value types — every existing
// constructor keeps working — and interning layers pointer-unique handles on
// top: Intern(f) returns the canonical *IFormula for f's structure, so
// structurally equal formulas intern to the same pointer and equality and
// map keys become a single word. Handles carry the precomputed structural
// hash, node count, and a stable allocation ID, plus memo slots for the
// normalizations the solver applies over and over (Simplify, Neg, and
// one caller-supplied slot used by the SMT preprocessing chain).
//
// Invariants: interned nodes are never mutated (formulas are value trees
// built by the canonical constructors, and the handle's memo slots only move
// nil → final value); memoized transforms must be pure and deterministic so
// concurrent racers compute identical results and a lost
// compare-and-swap-free store is harmless.
//
// The interner is a process-global, sharded, mutex-protected hash table.
// On Go ≥ 1.24 the table holds weak references (intern_weak.go): canonical
// handles stay pointer-unique for as long as anything references them (the
// SMT validity cache, engine fillers, memo chains), but once every client
// drops a handle the GC reclaims the whole formula tree and the table entry
// is pruned. This matters: a benchmark sweep interns millions of distinct
// pointer-rich trees, and pinning them for the process lifetime makes every
// GC mark phase scan all of them — measured at >20% of total CPU on long
// runs. Pointer uniqueness among *live* handles is all the clients need:
// if a cache still holds a key, any re-intern of an equal structure finds
// that same node; if nothing holds it, no comparison against it can exist.
// On older toolchains a strong append-only table (intern_strong.go) keeps
// the same API.

const internShards = 64

var (
	internNextID  atomic.Uint64
	internedCount atomic.Int64
)

// IFormula is the canonical interned handle for one formula structure.
// Handles returned by Intern are pointer-unique: Intern(f) == Intern(g) iff
// FormulaStructEq(f, g).
type IFormula struct {
	f    Formula
	hash uint64
	id   uint64
	size int32

	simplified atomic.Pointer[IFormula]
	neg        atomic.Pointer[IFormula]
	norm       atomic.Pointer[IFormula]
}

// Formula returns the underlying formula value.
func (n *IFormula) Formula() Formula { return n.f }

// Hash returns the precomputed 64-bit structural hash.
func (n *IFormula) Hash() uint64 { return n.hash }

// ID returns a process-unique allocation ID (stable for the node's lifetime,
// NOT stable across processes — never use it in persisted or printed output).
func (n *IFormula) ID() uint64 { return n.id }

// Size returns the node count of the formula tree.
func (n *IFormula) Size() int { return int(n.size) }

func (n *IFormula) String() string { return n.f.String() }

// ITerm is the canonical interned handle for one term structure.
type ITerm struct {
	t    Term
	hash uint64
	id   uint64
	size int32
}

// Term returns the underlying term value.
func (n *ITerm) Term() Term { return n.t }

// Hash returns the precomputed 64-bit structural hash.
func (n *ITerm) Hash() uint64 { return n.hash }

// ID returns a process-unique allocation ID.
func (n *ITerm) ID() uint64 { return n.id }

// Size returns the node count of the term tree.
func (n *ITerm) Size() int { return int(n.size) }

func (n *ITerm) String() string { return n.t.String() }

// InternedCount returns the number of distinct structures interned so far
// (formulas plus terms, counting re-interns of collected structures anew);
// used by tests and diagnostics.
func InternedCount() int64 { return internedCount.Load() }

// Simplified returns Intern(Simplify(f)), memoized on the handle. Simplify
// is idempotent, so the result node is marked simplified too and repeated
// chains terminate immediately.
func (n *IFormula) Simplified() *IFormula {
	if m := n.simplified.Load(); m != nil {
		return m
	}
	m := Intern(Simplify(n.f))
	if m != n && m.simplified.Load() == nil {
		m.simplified.Store(m)
	}
	n.simplified.Store(m)
	return m
}

// Negated returns Intern(Neg(f)), memoized on the handle; the link is
// installed in both directions when Neg is an involution on the pair.
func (n *IFormula) Negated() *IFormula {
	if m := n.neg.Load(); m != nil {
		return m
	}
	m := Intern(Neg(n.f))
	if m != n && m.neg.Load() == nil && FormulaStructEq(Neg(m.f), n.f) {
		m.neg.Store(n)
	}
	n.neg.Store(m)
	return m
}

// Normalized returns compute(f) interned, memoized on the handle. All
// callers of a given node must pass the same pure, deterministic compute
// function — the slot is keyed by the node alone. The SMT layer uses it for
// its full preprocessing chain.
func (n *IFormula) Normalized(compute func(Formula) Formula) *IFormula {
	if m := n.norm.Load(); m != nil {
		return m
	}
	m := Intern(compute(n.f))
	n.norm.Store(m)
	return m
}
