// Package smt implements the SMT validity checker that every layer of the
// verifier calls through a single interface, mirroring the paper's use of Z3
// behind a pattern/skolemization wrapper (§7). Validity of a quantified
// formula is decided refutationally:
//
//	Valid(φ)  ⇔  ¬φ unsatisfiable
//
// The negated formula is normalized (array equalities → quantified element
// equalities, NNF, bound-variable standardization), its existentials are
// skolemized, and its universals are instantiated over the ground index
// terms of the formula (iterated so skolem witnesses feed later rounds).
// The resulting ground formula is decided by a lazy DPLL(T) loop over the
// CDCL core (package sat) and the integer arithmetic solver (package lia).
//
// "Unsatisfiable" answers — hence Valid == true — are sound unconditionally.
// A "satisfiable" answer on an instantiation-incomplete formula is treated
// as "not valid", which keeps every client algorithm conservative.
package smt

import (
	"strings"

	"repro/internal/logic"
)

// boundVarNames returns the set of all quantified variable names in f.
// After StandardizeApart these are globally unique, so a term is ground
// exactly when it mentions none of them.
func boundVarNames(f logic.Formula) map[string]bool {
	out := map[string]bool{}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			for _, v := range f.Vars {
				out[v] = true
			}
			walk(f.Body)
		case logic.Exists:
			for _, v := range f.Vars {
				out[v] = true
			}
			walk(f.Body)
		}
	}
	walk(f)
	return out
}

// termMentions reports whether t mentions any integer variable in names. It
// is called for every term and atom the instantiation walks touch, so it is a
// direct short-circuiting recursion rather than a TermVars set collection
// (which would allocate two maps per call). The traversal mirrors TermVars
// exactly — including walking only the X side of Mul (the linear fragment
// keeps Y constant).
func termMentions(t logic.Term, names map[string]bool) bool {
	switch t := t.(type) {
	case logic.Var:
		return names[t.Name]
	case logic.IntLit:
		return false
	case logic.Add:
		return termMentions(t.X, names) || termMentions(t.Y, names)
	case logic.Sub:
		return termMentions(t.X, names) || termMentions(t.Y, names)
	case logic.Mul:
		return termMentions(t.X, names)
	case logic.Select:
		return arrMentions(t.A, names) || termMentions(t.Idx, names)
	case logic.Apply:
		for _, a := range t.Args {
			if termMentions(a, names) {
				return true
			}
		}
		return false
	}
	return false
}

func arrMentions(a logic.Arr, names map[string]bool) bool {
	switch a := a.(type) {
	case logic.ArrVar:
		return false
	case logic.Store:
		return arrMentions(a.A, names) || termMentions(a.Idx, names) || termMentions(a.Val, names)
	}
	return false
}

// collectInstTermsInto adds f's contribution to the instantiation set E for
// the universals of a formula to seen (keyed by the term's rendering): ground
// index terms of array reads, and ground atom sides compared against a term
// that mentions a bound variable. This is the standard complete
// instantiation set for the array property fragment. Every contribution is
// local to one atom, so the set of a formula is the union of its parts' sets.
func collectInstTermsInto(f logic.Formula, bound map[string]bool, seen map[string]logic.Term) {
	add := func(t logic.Term) {
		if !termMentions(t, bound) {
			seen[t.String()] = t
		}
	}
	var walkTerm func(logic.Term)
	var walkArr func(logic.Arr)
	walkTerm = func(t logic.Term) {
		switch t := t.(type) {
		case logic.Var, logic.IntLit:
		case logic.Add:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Sub:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Mul:
			walkTerm(t.X)
		case logic.Select:
			add(t.Idx)
			walkArr(t.A)
			walkTerm(t.Idx)
		case logic.Apply:
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	walkArr = func(a logic.Arr) {
		switch a := a.(type) {
		case logic.ArrVar:
		case logic.Store:
			walkArr(a.A)
			add(a.Idx)
			walkTerm(a.Idx)
			walkTerm(a.Val)
		}
	}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Atom:
			xb, yb := termMentions(f.X, bound), termMentions(f.Y, bound)
			if xb && !yb {
				add(f.Y)
			}
			if yb && !xb {
				add(f.X)
			}
			walkTerm(f.X)
			walkTerm(f.Y)
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			walk(f.Body)
		case logic.Exists:
			walk(f.Body)
		}
	}
	walk(f)
}

// termComplexity orders instantiation candidates: simple variables first so
// that if the set must be truncated the most useful instances survive.
func termComplexity(t logic.Term) int {
	switch t := t.(type) {
	case logic.Var:
		if strings.HasPrefix(t.Name, "@sk") {
			return 1
		}
		return 0
	case logic.IntLit:
		return 0
	case logic.Add:
		return 1 + termComplexity(t.X) + termComplexity(t.Y)
	case logic.Sub:
		return 1 + termComplexity(t.X) + termComplexity(t.Y)
	case logic.Mul:
		return 1 + termComplexity(t.X)
	case logic.Select:
		return 3 + termComplexity(t.Idx)
	case logic.Apply:
		c := 2
		for _, a := range t.Args {
			c += termComplexity(a)
		}
		return c
	}
	return 9
}

// instEnv carries the instantiation candidate sets of one round: the
// comparison-derived fallback set E and, per array, the ground index terms
// occurring anywhere in the formula (the E-matching index).
type instEnv struct {
	fallback   []logic.Term
	arrIndices map[string][]logic.Term
	// fallbackKeys and arrKeys are the renderings of the terms above, index
	// for index; they key the grounding plan's instance memo.
	fallbackKeys []string
	arrKeys      map[string][]string
	maxInstances int

	// A grounding plan interns its environments: ids is the content, the
	// sorted per-plan ids of the candidates. tuples memoizes each
	// universal's candidate tuples here, guarded by the plan's mutex.
	ids    []int32
	tuples map[*trigSet]*instCands
}

// converged reports whether this round's candidate sets match the previous
// round's — same fallback count and identical per-array ground index terms —
// in which case re-instantiating cannot produce anything new. (This is the
// same fixpoint condition the solver historically checked by rendering both
// sets through fmt.Sprintf and comparing the strings.)
func (env *instEnv) converged(prev *instEnv) bool {
	if prev == nil || len(env.fallback) != len(prev.fallback) {
		return false
	}
	if len(env.arrIndices) != len(prev.arrIndices) {
		return false
	}
	for arr, ts := range env.arrIndices {
		ps, ok := prev.arrIndices[arr]
		if !ok || len(ts) != len(ps) {
			return false
		}
		for i := range ts {
			if !logic.TermStructEq(ts[i], ps[i]) {
				return false
			}
		}
	}
	return true
}

// arrFamily canonicalizes an array variable name to its SSA family: the
// versions A, A#1, A#2 of one program array share index terms for
// E-matching purposes (they are linked by element equalities).
func arrFamily(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '#' {
			return name[:i]
		}
	}
	return name
}

// groundArrayIndicesInto adds, per array family, the ground terms f uses as
// read or write indices to seen (keyed by family, then by rendering). These
// are the E-matching candidates; like the fallback set, a formula's are the
// union of its parts'.
func groundArrayIndicesInto(f logic.Formula, bound map[string]bool, seen map[string]map[string]logic.Term) {
	add := func(arr string, t logic.Term) {
		if termMentions(t, bound) {
			return
		}
		m, ok := seen[arr]
		if !ok {
			m = map[string]logic.Term{}
			seen[arr] = m
		}
		m[t.String()] = t
	}
	var walkTerm func(logic.Term)
	var walkArr func(logic.Arr) string
	walkArr = func(a logic.Arr) string {
		switch a := a.(type) {
		case logic.ArrVar:
			return arrFamily(a.Name)
		case logic.Store:
			name := walkArr(a.A)
			add(name, a.Idx)
			walkTerm(a.Idx)
			walkTerm(a.Val)
			return name
		}
		return ""
	}
	walkTerm = func(t logic.Term) {
		switch t := t.(type) {
		case logic.Var, logic.IntLit:
		case logic.Add:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Sub:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Mul:
			walkTerm(t.X)
		case logic.Select:
			name := walkArr(t.A)
			add(name, t.Idx)
			walkTerm(t.Idx)
		case logic.Apply:
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Atom:
			walkTerm(f.X)
			walkTerm(f.Y)
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			walk(f.Body)
		case logic.Exists:
			walk(f.Body)
		}
	}
	walk(f)
}

// trigger is one E-matching pattern: the bound variable occurs (plus a
// constant offset) as an index of the named array.
type trigger struct {
	arr    string
	offset int64
}

// triggersOf extracts, per bound variable, the select patterns it occurs in
// within body: A[v] gives {A, 0}, A[v+1] gives {A, +1}, A[v-2] gives {A, −2}.
func triggersOf(body logic.Formula, vars []string) map[string][]trigger {
	isVar := map[string]bool{}
	for _, v := range vars {
		isVar[v] = true
	}
	out := map[string][]trigger{}
	addTrig := func(v string, tr trigger) {
		for _, t := range out[v] {
			if t == tr {
				return
			}
		}
		out[v] = append(out[v], tr)
	}
	matchIdx := func(arr string, idx logic.Term) {
		switch idx := idx.(type) {
		case logic.Var:
			if isVar[idx.Name] {
				addTrig(idx.Name, trigger{arr: arr, offset: 0})
			}
		case logic.Add:
			if v, ok := idx.X.(logic.Var); ok && isVar[v.Name] {
				if c, ok := idx.Y.(logic.IntLit); ok {
					addTrig(v.Name, trigger{arr: arr, offset: c.Val})
				}
			}
		case logic.Sub:
			if v, ok := idx.X.(logic.Var); ok && isVar[v.Name] {
				if c, ok := idx.Y.(logic.IntLit); ok {
					addTrig(v.Name, trigger{arr: arr, offset: -c.Val})
				}
			}
		}
	}
	var walkTerm func(logic.Term)
	var walkArr func(logic.Arr) string
	walkArr = func(a logic.Arr) string {
		switch a := a.(type) {
		case logic.ArrVar:
			return arrFamily(a.Name)
		case logic.Store:
			name := walkArr(a.A)
			matchIdx(name, a.Idx)
			walkTerm(a.Idx)
			walkTerm(a.Val)
			return name
		}
		return ""
	}
	walkTerm = func(t logic.Term) {
		switch t := t.(type) {
		case logic.Var, logic.IntLit:
		case logic.Add:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Sub:
			walkTerm(t.X)
			walkTerm(t.Y)
		case logic.Mul:
			walkTerm(t.X)
		case logic.Select:
			name := walkArr(t.A)
			matchIdx(name, t.Idx)
			walkTerm(t.Idx)
		case logic.Apply:
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	var walk func(logic.Formula)
	walk = func(f logic.Formula) {
		switch f := f.(type) {
		case logic.Atom:
			walkTerm(f.X)
			walkTerm(f.Y)
		case logic.Not:
			walk(f.F)
		case logic.And:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Or:
			for _, g := range f.Fs {
				walk(g)
			}
		case logic.Forall:
			walk(f.Body)
		case logic.Exists:
			walk(f.Body)
		}
	}
	walk(body)
	return out
}

// candidatesFor returns the instantiation terms for one bound variable of a
// universal, with their renderings: the E-matching candidates from its select
// patterns, or the comparison-derived fallback set when it indexes nothing.
func (env *instEnv) candidatesFor(v string, trigs map[string][]trigger) ([]logic.Term, []string) {
	ts := trigs[v]
	if len(ts) == 0 {
		return env.fallback, env.fallbackKeys
	}
	seen := map[string]logic.Term{}
	for _, tr := range ts {
		for i, idx := range env.arrIndices[tr.arr] {
			// Pattern v+off matched ground index t instantiates v := t−off.
			if tr.offset == 0 {
				seen[env.arrKeys[tr.arr][i]] = idx
				continue
			}
			inst := logic.Minus(idx, logic.I(tr.offset))
			seen[inst.String()] = inst
		}
	}
	if len(seen) == 0 {
		return env.fallback, env.fallbackKeys
	}
	keys := logic.SortedKeys(seen)
	out := make([]logic.Term, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out, keys
}

// instanceCands returns, per variable of a universal, the candidate
// terms (and their renderings) its instances range over: each variable's
// candidates, with the largest sets shrunk until the tuple count is within
// maxInstances. Instances are the cartesian product, the first variable
// varying slowest.
func (env *instEnv) instanceCands(vars []string, trigs map[string][]trigger) ([][]logic.Term, [][]string) {
	k := len(vars)
	cands := make([][]logic.Term, k)
	keys := make([][]string, k)
	total := 1
	for i, v := range vars {
		cands[i], keys[i] = env.candidatesFor(v, trigs)
		total *= len(cands[i])
	}
	// Shrink the largest sets until the tuple count is bounded.
	for total > env.maxInstances {
		maxI := 0
		for i := range cands {
			if len(cands[i]) > len(cands[maxI]) {
				maxI = i
			}
		}
		if len(cands[maxI]) <= 1 {
			break
		}
		total = total / len(cands[maxI]) * (len(cands[maxI]) - 1)
		cands[maxI] = cands[maxI][:len(cands[maxI])-1]
		keys[maxI] = keys[maxI][:len(keys[maxI])-1]
	}
	return cands, keys
}
