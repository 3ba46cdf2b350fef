package template

import "repro/internal/logic"

// Filler is a compiled form of logic.FillUnknowns for one fixed skeleton
// formula: compiling walks the skeleton once and records which spines lead
// to unknowns; each Fill then rebuilds only those spines (with the same
// smart constructors FillUnknowns uses, in the same order, so results are
// structurally identical on canonically-constructed skeletons) and returns
// every unknown-free subtree by reference. The iterative and constraint-
// based algorithms fill the same verification-condition skeletons thousands
// of times with different candidate solutions, so this turns the dominant
// O(|VC|) rebuild into O(|spine|).
//
// A Filler is immutable after construction and safe for concurrent use.
type Filler struct {
	f        logic.Formula
	unknowns []string
	fill     func([]logic.Formula) logic.Formula
}

// NewFiller compiles a filler for f.
func NewFiller(f logic.Formula) *Filler {
	unknowns := logic.Unknowns(f)
	index := make(map[string]int, len(unknowns))
	for i, u := range unknowns {
		index[u] = i
	}
	fn, has := compileFill(f, index)
	if !has {
		fn = func([]logic.Formula) logic.Formula { return f }
	}
	return &Filler{f: f, unknowns: unknowns, fill: fn}
}

// Skeleton returns the compiled formula.
func (fl *Filler) Skeleton() logic.Formula { return fl.f }

// Unknowns returns the skeleton's unknown names in first-occurrence order.
func (fl *Filler) Unknowns() []string { return fl.unknowns }

// Fill instantiates the skeleton, replacing each unknown with its entry in
// fill (unknowns missing from fill are left in place, as with
// logic.FillUnknowns).
func (fl *Filler) Fill(fill map[string]logic.Formula) logic.Formula {
	fills := make([]logic.Formula, len(fl.unknowns))
	for i, u := range fl.unknowns {
		fills[i] = fill[u]
	}
	return fl.fill(fills)
}

// FillList is Fill with the fill given per unknown, in Unknowns order: a nil
// entry leaves its unknown in place.
func (fl *Filler) FillList(fills []logic.Formula) logic.Formula {
	return fl.fill(fills)
}

// FillSolution instantiates the skeleton with each unknown's predicate
// conjunction under s.
func (fl *Filler) FillSolution(s Solution) logic.Formula {
	return fl.Fill(fl.SolutionFill(s))
}

// SolutionFill returns the fill FillSolution uses for s: each of the
// skeleton's unknowns that s assigns, mapped to its predicate conjunction.
func (fl *Filler) SolutionFill(s Solution) map[string]logic.Formula {
	fill := make(map[string]logic.Formula, len(fl.unknowns))
	for _, u := range fl.unknowns {
		if ps, ok := s[u]; ok {
			fill[u] = ps.Formula()
		}
	}
	return fill
}

// compileFill returns a closure computing FillUnknowns(f, ·), over fills
// indexed by index[unknown], and whether f contains any unknowns;
// unknown-free formulas report false and are returned by reference at fill
// time.
func compileFill(f logic.Formula, index map[string]int) (func([]logic.Formula) logic.Formula, bool) {
	switch f := f.(type) {
	case logic.Unknown:
		i := index[f.Name]
		return func(fills []logic.Formula) logic.Formula {
			if g := fills[i]; g != nil {
				return g
			}
			return f
		}, true
	case logic.Atom, logic.Bool, logic.AEq:
		return nil, false
	case logic.Not:
		c, has := compileFill(f.F, index)
		if !has {
			return nil, false
		}
		return func(fills []logic.Formula) logic.Formula {
			return logic.Neg(c(fills))
		}, true
	case logic.And:
		cs, any := compileFillList(f.Fs, index)
		if !any {
			return nil, false
		}
		fs := f.Fs
		return func(fills []logic.Formula) logic.Formula {
			return logic.Conj(fillList(cs, fs, fills)...)
		}, true
	case logic.Or:
		cs, any := compileFillList(f.Fs, index)
		if !any {
			return nil, false
		}
		fs := f.Fs
		return func(fills []logic.Formula) logic.Formula {
			return logic.Disj(fillList(cs, fs, fills)...)
		}, true
	case logic.Implies:
		ca, hasA := compileFill(f.A, index)
		cb, hasB := compileFill(f.B, index)
		if !hasA && !hasB {
			return nil, false
		}
		a, b := f.A, f.B
		return func(fills []logic.Formula) logic.Formula {
			fa, fb := a, b
			if ca != nil {
				fa = ca(fills)
			}
			if cb != nil {
				fb = cb(fills)
			}
			return logic.Imp(fa, fb)
		}, true
	case logic.Forall:
		c, has := compileFill(f.Body, index)
		if !has {
			return nil, false
		}
		vars := f.Vars
		return func(fills []logic.Formula) logic.Formula {
			return logic.All(vars, c(fills))
		}, true
	case logic.Exists:
		c, has := compileFill(f.Body, index)
		if !has {
			return nil, false
		}
		vars := f.Vars
		return func(fills []logic.Formula) logic.Formula {
			return logic.Any(vars, c(fills))
		}, true
	}
	return nil, false
}

func compileFillList(fs []logic.Formula, index map[string]int) ([]func([]logic.Formula) logic.Formula, bool) {
	cs := make([]func([]logic.Formula) logic.Formula, len(fs))
	any := false
	for i, g := range fs {
		if c, has := compileFill(g, index); has {
			cs[i] = c
			any = true
		}
	}
	return cs, any
}

// fillList fills the operands fs, through cs where an operand has unknowns.
func fillList(cs []func([]logic.Formula) logic.Formula, fs, fills []logic.Formula) []logic.Formula {
	out := make([]logic.Formula, len(fs))
	for i, g := range fs {
		if cs[i] != nil {
			out[i] = cs[i](fills)
		} else {
			out[i] = g
		}
	}
	return out
}
