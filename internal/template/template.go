// Package template implements the paper's template formalism (§2.1):
// formulas with unknowns that take values over conjunctions of predicates,
// the positive/negative polarity classification of unknowns, and solution
// maps from unknowns to predicate sets.
//
// Polarity semantics: a solution for a NEGATIVE unknown remains a solution
// when predicates are ADDED (the formula only gets weaker), so optimal
// solutions map negative unknowns to minimal sets. A solution for a POSITIVE
// unknown remains a solution when predicates are DELETED, so optimal
// solutions map positive unknowns to maximal sets.
package template

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/ssa"
)

// Polarity classifies an unknown within a formula.
type Polarity int

// Polarity values.
const (
	Positive Polarity = iota + 1
	Negative
)

func (p Polarity) String() string {
	if p == Positive {
		return "positive"
	}
	return "negative"
}

// Polarities computes the U+/U− classification of every unknown in f by the
// structural rules of §2.1. An unknown may occur several times only with a
// consistent polarity (the iterative algorithms conjoin a VC with the
// progress constraint θ, duplicating the target template's unknowns on the
// same side); conflicting occurrences return an error — callers rename
// first, as the constraint-based algorithm's orig mapping does.
func Polarities(f logic.Formula) (map[string]Polarity, error) {
	out := map[string]Polarity{}
	var walk func(g logic.Formula, pos bool) error
	walk = func(g logic.Formula, pos bool) error {
		switch g := g.(type) {
		case logic.Unknown:
			p := Negative
			if pos {
				p = Positive
			}
			if prev, dup := out[g.Name]; dup && prev != p {
				return fmt.Errorf("unknown %s occurs with conflicting polarity", g.Name)
			}
			out[g.Name] = p
			return nil
		case logic.Atom, logic.Bool, logic.AEq:
			return nil
		case logic.Not:
			return walk(g.F, !pos)
		case logic.And:
			for _, h := range g.Fs {
				if err := walk(h, pos); err != nil {
					return err
				}
			}
			return nil
		case logic.Or:
			for _, h := range g.Fs {
				if err := walk(h, pos); err != nil {
					return err
				}
			}
			return nil
		case logic.Implies:
			if err := walk(g.A, !pos); err != nil {
				return err
			}
			return walk(g.B, pos)
		case logic.Forall:
			return walk(g.Body, pos)
		case logic.Exists:
			return walk(g.Body, pos)
		}
		return fmt.Errorf("unexpected formula %T", g)
	}
	if err := walk(f, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Split partitions the polarity map into positive and negative unknown
// names, each sorted.
func Split(pol map[string]Polarity) (pos, neg []string) {
	for v, p := range pol {
		if p == Positive {
			pos = append(pos, v)
		} else {
			neg = append(neg, v)
		}
	}
	sort.Strings(pos)
	sort.Strings(neg)
	return pos, neg
}

// RenameUnknowns replaces unknowns in f per ren (missing entries unchanged).
func RenameUnknowns(f logic.Formula, ren map[string]string) logic.Formula {
	fill := make(map[string]logic.Formula, len(ren))
	for old, nu := range ren {
		fill[old] = logic.Unknown{Name: nu}
	}
	return logic.FillUnknowns(f, fill)
}

// PredSet is an immutable set of predicates, identified canonically by the
// string forms of its members. The empty set denotes the conjunction true.
//
// Member keys, the canonical identity string, and the conjunction formula
// are all computed once at construction, so the set operations on the
// lattice-search hot path (Contains, SubsetOf, Union, Add, Key) never
// re-serialize member predicates: Contains is a binary search, SubsetOf and
// Union are sorted merges. AddKeyed and ContainsKey take the probe
// predicate's key from the caller, so a search that renders its item
// universe once never re-serializes a predicate at all.
//
// A PredSet is one pointer to its immutable members, so a Solution map's
// slots stay small and cloning one copies no member lists.
type PredSet struct{ d *predSet }

type predSet struct {
	preds []logic.Formula // sorted by String()
	keys  []string        // keys[i] == preds[i].String()
	key   string          // canonical identity, "{k1 & k2 & ...}"
	conj  logic.Formula   // Conj(preds...)
}

// noPreds stands for the zero PredSet's members.
var noPreds = &predSet{key: "{}", conj: logic.True}

func (s PredSet) v() *predSet {
	if s.d == nil {
		return noPreds
	}
	return s.d
}

// newPredSetSorted builds a set from members already in canonical (sorted,
// deduplicated) order with their precomputed keys.
func newPredSetSorted(preds []logic.Formula, keys []string) PredSet {
	return PredSet{&predSet{
		preds: preds,
		keys:  keys,
		key:   "{" + strings.Join(keys, " & ") + "}",
		conj:  logic.Conj(preds...),
	}}
}

// NewPredSet builds a set from the given predicates, deduplicating.
func NewPredSet(ps ...logic.Formula) PredSet {
	m := map[string]logic.Formula{}
	for _, p := range ps {
		m[p.String()] = p
	}
	keys := logic.SortedKeys(m)
	out := make([]logic.Formula, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return newPredSetSorted(out, keys)
}

// Len returns the number of predicates.
func (s PredSet) Len() int { return len(s.v().preds) }

// Preds returns the predicates in canonical order. Callers must not mutate
// the returned slice.
func (s PredSet) Preds() []logic.Formula { return s.v().preds }

// Key returns a canonical identity string.
func (s PredSet) Key() string { return s.v().key }

func (s PredSet) String() string { return s.Key() }

// Formula returns the conjunction of the set (true when empty).
func (s PredSet) Formula() logic.Formula { return s.v().conj }

// Keys returns the members' canonical keys (each predicate's String()), in
// the same order as Preds. Callers must not mutate the returned slice.
func (s PredSet) Keys() []string { return s.v().keys }

// Contains reports membership by canonical form.
func (s PredSet) Contains(p logic.Formula) bool { return s.ContainsKey(p.String()) }

// ContainsKey reports whether a predicate with canonical key key (its
// String()) is a member, without rendering any formula.
func (s PredSet) ContainsKey(key string) bool {
	keys := s.v().keys
	i := sort.SearchStrings(keys, key)
	return i < len(keys) && keys[i] == key
}

// SubsetOf reports whether every predicate of s is in t.
func (s PredSet) SubsetOf(t PredSet) bool {
	sk, tk := s.v().keys, t.v().keys
	if len(sk) > len(tk) {
		return false
	}
	j := 0
	for i := 0; i < len(sk); i++ {
		for j < len(tk) && tk[j] < sk[i] {
			j++
		}
		if j >= len(tk) || tk[j] != sk[i] {
			return false
		}
		j++
	}
	return true
}

// Union returns s ∪ t.
func (s PredSet) Union(t PredSet) PredSet {
	if s.Len() == 0 {
		if t.Len() == 0 {
			return NewPredSet()
		}
		return t
	}
	if t.Len() == 0 {
		return s
	}
	a, b := s.v(), t.v()
	preds := make([]logic.Formula, 0, len(a.preds)+len(b.preds))
	keys := make([]string, 0, len(a.keys)+len(b.keys))
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] == b.keys[j]:
			preds, keys = append(preds, a.preds[i]), append(keys, a.keys[i])
			i, j = i+1, j+1
		case a.keys[i] < b.keys[j]:
			preds, keys = append(preds, a.preds[i]), append(keys, a.keys[i])
			i++
		default:
			preds, keys = append(preds, b.preds[j]), append(keys, b.keys[j])
			j++
		}
	}
	preds = append(preds, a.preds[i:]...)
	keys = append(keys, a.keys[i:]...)
	preds = append(preds, b.preds[j:]...)
	keys = append(keys, b.keys[j:]...)
	return newPredSetSorted(preds, keys)
}

// Add returns s ∪ {p}.
func (s PredSet) Add(p logic.Formula) PredSet { return s.AddKeyed(p, p.String()) }

// AddKeyed returns s ∪ {p} given p's canonical key (key == p.String()).
// Searches that add the same predicates over and over render each key once
// and pass it here instead of paying for p.String() on every step.
func (s PredSet) AddKeyed(p logic.Formula, key string) PredSet {
	a := s.v()
	i := sort.SearchStrings(a.keys, key)
	if i < len(a.keys) && a.keys[i] == key {
		return s
	}
	preds := make([]logic.Formula, 0, len(a.preds)+1)
	keys := make([]string, 0, len(a.keys)+1)
	preds = append(append(append(preds, a.preds[:i]...), p), a.preds[i:]...)
	keys = append(append(append(keys, a.keys[:i]...), key), a.keys[i:]...)
	return newPredSetSorted(preds, keys)
}

// Rename applies a variable renaming to every predicate.
func (s PredSet) Rename(r ssa.Renaming) PredSet {
	if r.IsIdentity() {
		return s
	}
	out := make([]logic.Formula, s.Len())
	for i, p := range s.Preds() {
		out[i] = r.Apply(p)
	}
	return NewPredSet(out...)
}

// Solution maps unknowns to predicate sets (the paper's σ). Missing entries
// mean the unknown is unconstrained by this solution.
type Solution map[string]PredSet

// Clone returns a copy.
func (s Solution) Clone() Solution {
	out := make(Solution, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Key returns a canonical identity string.
func (s Solution) Key() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "->" + s[k].Key()
	}
	return strings.Join(parts, "; ")
}

func (s Solution) String() string { return s.Key() }

// Fill instantiates every unknown of f with its conjunction under s.
// Unknowns absent from s are left in place.
func (s Solution) Fill(f logic.Formula) logic.Formula {
	fill := make(map[string]logic.Formula, len(s))
	for v, ps := range s {
		fill[v] = ps.Formula()
	}
	return logic.FillUnknowns(f, fill)
}

// Merge returns the union of two solutions over disjoint unknown sets;
// entries present in both are unioned predicate-wise.
func (s Solution) Merge(t Solution) Solution {
	out := s.Clone()
	for k, v := range t {
		if cur, ok := out[k]; ok {
			out[k] = cur.Union(v)
		} else {
			out[k] = v
		}
	}
	return out
}

// Restrict returns the sub-solution for the given unknowns.
func (s Solution) Restrict(unknowns []string) Solution {
	out := Solution{}
	for _, u := range unknowns {
		if v, ok := s[u]; ok {
			out[u] = v
		}
	}
	return out
}

// RestrictComplement returns the sub-solution excluding the given unknowns
// (the paper's σ|_{U(Prog)−U(τ)} projection).
func (s Solution) RestrictComplement(unknowns []string) Solution {
	skip := make(map[string]bool, len(unknowns))
	for _, u := range unknowns {
		skip[u] = true
	}
	out := Solution{}
	for k, v := range s {
		if !skip[k] {
			out[k] = v
		}
	}
	return out
}

// Rename applies a variable renaming to every predicate in every entry.
func (s Solution) Rename(r ssa.Renaming) Solution {
	if r.IsIdentity() {
		return s.Clone()
	}
	out := make(Solution, len(s))
	for k, v := range s {
		out[k] = v.Rename(r)
	}
	return out
}

// Domain is the paper's predicate-map Q: each unknown's candidate
// predicate vocabulary.
type Domain map[string][]logic.Formula

// Rename applies a variable renaming to every predicate of every entry
// (the paper's Qσt).
func (d Domain) Rename(r ssa.Renaming) Domain {
	if r.IsIdentity() {
		return d
	}
	out := make(Domain, len(d))
	for k, ps := range d {
		nps := make([]logic.Formula, len(ps))
		for i, p := range ps {
			nps[i] = r.Apply(p)
		}
		out[k] = nps
	}
	return out
}
