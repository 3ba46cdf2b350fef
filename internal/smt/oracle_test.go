package smt

import (
	"fmt"
	"sort"

	"repro/internal/logic"
)

// This file keeps the multi-pass grounding pipeline the solver ran per probe
// before grounding plans: each pass rebuilds the whole formula. It is the
// oracle the plan is checked against — same inputs, and the interned result
// must be the very same node.

// oracleNormalize is the pass-by-pass preprocessing chain: array equalities
// become quantified element equalities, then Simplify, NNF, bound-variable
// standardization and skolemization, each with a fresh Namer.
func oracleNormalize(f logic.Formula) logic.Formula {
	f = logic.RewriteArrayEq(f, logic.NewNamer("@q"))
	f = logic.Simplify(f)
	if b, ok := f.(logic.Bool); ok {
		return b
	}
	f = logic.NNF(f)
	f = logic.StandardizeApart(f, logic.NewNamer("@b"))
	return skolemize(f, nil, logic.NewNamer("@sk"))
}

// oracleGround grounds the negation of the simplified formula sn the
// multi-pass way: normalization, then up to InstRounds rounds of
// instantiation over candidates collected from the whole quantified formula
// and the previous round's ground formula, then one Simplify of the result.
func (s *Solver) oracleGround(sn *logic.IFormula) (ground logic.Formula, done, v bool) {
	f := oracleNormalize(logic.Neg(sn.Formula()))
	if b, ok := f.(logic.Bool); ok {
		return nil, true, b.Val
	}
	bound := boundVarNames(f)
	ground = f
	if len(bound) > 0 {
		var prev *instEnv
		for round := 0; round < s.opts.InstRounds; round++ {
			var both logic.Formula = f
			if round > 0 {
				both = logic.And{Fs: []logic.Formula{f, ground}}
			}
			fb := map[string]logic.Term{}
			collectInstTermsInto(both, bound, fb)
			arr := map[string]map[string]logic.Term{}
			groundArrayIndicesInto(both, bound, arr)
			env := &instEnv{maxInstances: s.opts.MaxInstances}
			env.fallback, env.fallbackKeys = sortInstTerms(fb)
			env.arrIndices, env.arrKeys = arrIndexLists(arr)
			if env.converged(prev) {
				break
			}
			prev = env
			ground = s.oracleInstantiate(f, env)
		}
		ground = logic.Simplify(ground)
	}
	return ground, false, false
}

// skolemize replaces every existential variable in the NNF formula f with an
// application of a fresh function symbol to the universally quantified
// variables in scope. Plain fresh constants are used when no universals are
// in scope.
func skolemize(f logic.Formula, univ []string, nm *logic.Namer) logic.Formula {
	switch f := f.(type) {
	case logic.Atom, logic.Bool:
		return f
	case logic.Not:
		return f
	case logic.And:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = skolemize(g, univ, nm)
		}
		return logic.Conj(out...)
	case logic.Or:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = skolemize(g, univ, nm)
		}
		return logic.Disj(out...)
	case logic.Forall:
		u2 := append(append([]string(nil), univ...), f.Vars...)
		return logic.All(f.Vars, skolemize(f.Body, u2, nm))
	case logic.Exists:
		sub := map[string]logic.Term{}
		for _, x := range f.Vars {
			if len(univ) == 0 {
				sub[x] = logic.V(nm.Fresh())
			} else {
				args := make([]logic.Term, len(univ))
				for i, u := range univ {
					args[i] = logic.V(u)
				}
				sub[x] = logic.App(nm.Fresh(), args...)
			}
		}
		return skolemize(logic.Substitute(f.Body, sub, nil), univ, nm)
	}
	panic(fmt.Sprintf("smt: unexpected formula in skolemize: %T", f))
}

// oracleInstantiate replaces every universal in the skolemized NNF formula
// with the conjunction of its body over the candidate tuples.
func (s *Solver) oracleInstantiate(f logic.Formula, env *instEnv) logic.Formula {
	switch f := f.(type) {
	case logic.Atom, logic.Bool, logic.Not:
		return f
	case logic.And:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = s.oracleInstantiate(g, env)
		}
		return logic.Conj(out...)
	case logic.Or:
		out := make([]logic.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = s.oracleInstantiate(g, env)
		}
		return logic.Disj(out...)
	case logic.Forall:
		cands, _ := env.instanceCands(f.Vars, s.triggers(f))
		k := len(f.Vars)
		var out []logic.Formula
		tuple := make([]logic.Term, k)
		sub := make(map[string]logic.Term, k)
		var gen func(int)
		gen = func(i int) {
			if i == k {
				for j, v := range f.Vars {
					sub[v] = tuple[j]
				}
				out = append(out, s.oracleInstantiate(logic.Substitute(f.Body, sub, nil), env))
				return
			}
			for _, t := range cands[i] {
				tuple[i] = t
				gen(i + 1)
			}
		}
		gen(0)
		return logic.Conj(out...)
	}
	panic(fmt.Sprintf("smt: unexpected formula in instantiate: %T", f))
}

// sortInstTerms turns a collected instantiation set into the candidate list
// E, ordered simplest first (the literal 0 stands in for an empty set),
// together with each term's rendering.
func sortInstTerms(seen map[string]logic.Term) ([]logic.Term, []string) {
	if len(seen) == 0 {
		return []logic.Term{logic.I(0)}, []string{"0"}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	cx := make(map[string]int, len(keys))
	for _, k := range keys {
		cx[k] = termComplexity(seen[k])
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := cx[keys[i]], cx[keys[j]]
		if ci != cj {
			return ci < cj
		}
		return keys[i] < keys[j]
	})
	terms := make([]logic.Term, len(keys))
	for i, k := range keys {
		terms[i] = seen[k]
	}
	return terms, keys
}

// arrIndexLists orders each family's collected index terms by rendering,
// returning the terms and their renderings.
func arrIndexLists(seen map[string]map[string]logic.Term) (map[string][]logic.Term, map[string][]string) {
	out := make(map[string][]logic.Term, len(seen))
	keys := make(map[string][]string, len(seen))
	for arr, m := range seen {
		ks := logic.SortedKeys(m)
		ts := make([]logic.Term, len(ks))
		for i, k := range ks {
			ts[i] = m[k]
		}
		out[arr] = ts
		keys[arr] = ks
	}
	return out, keys
}
