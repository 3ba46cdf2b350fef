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
	fill     func(map[string]logic.Formula) logic.Formula
}

// NewFiller compiles a filler for f.
func NewFiller(f logic.Formula) *Filler {
	fn, has := compileFill(f)
	if !has {
		fn = func(map[string]logic.Formula) logic.Formula { return f }
	}
	return &Filler{f: f, unknowns: logic.Unknowns(f), fill: fn}
}

// Skeleton returns the compiled formula.
func (fl *Filler) Skeleton() logic.Formula { return fl.f }

// Unknowns returns the skeleton's unknown names in first-occurrence order.
func (fl *Filler) Unknowns() []string { return fl.unknowns }

// Fill instantiates the skeleton, replacing each unknown with its entry in
// fill (unknowns missing from fill are left in place, as with
// logic.FillUnknowns).
func (fl *Filler) Fill(fill map[string]logic.Formula) logic.Formula {
	return fl.fill(fill)
}

// FillSolution instantiates the skeleton with each unknown's predicate
// conjunction under s.
func (fl *Filler) FillSolution(s Solution) logic.Formula {
	return fl.fill(fl.SolutionFill(s))
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

// compileFill returns a closure computing FillUnknowns(f, ·) and whether f
// contains any unknowns; unknown-free formulas report false and are returned
// by reference at fill time.
func compileFill(f logic.Formula) (func(map[string]logic.Formula) logic.Formula, bool) {
	switch f := f.(type) {
	case logic.Unknown:
		name := f.Name
		return func(fill map[string]logic.Formula) logic.Formula {
			if g, ok := fill[name]; ok {
				return g
			}
			return f
		}, true
	case logic.Atom, logic.Bool, logic.AEq:
		return nil, false
	case logic.Not:
		c, has := compileFill(f.F)
		if !has {
			return nil, false
		}
		return func(fill map[string]logic.Formula) logic.Formula {
			return logic.Neg(c(fill))
		}, true
	case logic.And:
		cs, any := compileFillList(f.Fs)
		if !any {
			return nil, false
		}
		fs := f.Fs
		return func(fill map[string]logic.Formula) logic.Formula {
			out := make([]logic.Formula, len(fs))
			for i, g := range fs {
				if cs[i] != nil {
					out[i] = cs[i](fill)
				} else {
					out[i] = g
				}
			}
			return logic.Conj(out...)
		}, true
	case logic.Or:
		cs, any := compileFillList(f.Fs)
		if !any {
			return nil, false
		}
		fs := f.Fs
		return func(fill map[string]logic.Formula) logic.Formula {
			out := make([]logic.Formula, len(fs))
			for i, g := range fs {
				if cs[i] != nil {
					out[i] = cs[i](fill)
				} else {
					out[i] = g
				}
			}
			return logic.Disj(out...)
		}, true
	case logic.Implies:
		ca, hasA := compileFill(f.A)
		cb, hasB := compileFill(f.B)
		if !hasA && !hasB {
			return nil, false
		}
		a, b := f.A, f.B
		return func(fill map[string]logic.Formula) logic.Formula {
			fa, fb := a, b
			if ca != nil {
				fa = ca(fill)
			}
			if cb != nil {
				fb = cb(fill)
			}
			return logic.Imp(fa, fb)
		}, true
	case logic.Forall:
		c, has := compileFill(f.Body)
		if !has {
			return nil, false
		}
		vars := f.Vars
		return func(fill map[string]logic.Formula) logic.Formula {
			return logic.All(vars, c(fill))
		}, true
	case logic.Exists:
		c, has := compileFill(f.Body)
		if !has {
			return nil, false
		}
		vars := f.Vars
		return func(fill map[string]logic.Formula) logic.Formula {
			return logic.Any(vars, c(fill))
		}, true
	}
	return nil, false
}

func compileFillList(fs []logic.Formula) ([]func(map[string]logic.Formula) logic.Formula, bool) {
	cs := make([]func(map[string]logic.Formula) logic.Formula, len(fs))
	any := false
	for i, g := range fs {
		if c, has := compileFill(g); has {
			cs[i] = c
			any = true
		}
	}
	return cs, any
}
