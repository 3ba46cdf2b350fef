package logic

import (
	"fmt"
	"slices"
	"strconv"
)

// NNF converts f (which must be unknown-free) to negation normal form:
// implications are eliminated, and negations are pushed onto atoms where they
// are absorbed by flipping the relational operator.
func NNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, negate bool) Formula {
	switch f := f.(type) {
	case Atom:
		if negate {
			return Atom{Op: f.Op.Negate(), X: f.X, Y: f.Y}
		}
		return f
	case Bool:
		return Bool{Val: f.Val != negate}
	case Not:
		return nnf(f.F, !negate)
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = nnf(g, negate)
		}
		if negate {
			return Disj(out...)
		}
		return Conj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = nnf(g, negate)
		}
		if negate {
			return Conj(out...)
		}
		return Disj(out...)
	case Implies:
		// a ⇒ b  ≡  ¬a ∨ b
		if negate {
			return Conj(nnf(f.A, false), nnf(f.B, true))
		}
		return Disj(nnf(f.A, true), nnf(f.B, false))
	case Forall:
		if negate {
			return Any(f.Vars, nnf(f.Body, true))
		}
		return All(f.Vars, nnf(f.Body, false))
	case Exists:
		if negate {
			return All(f.Vars, nnf(f.Body, true))
		}
		return Any(f.Vars, nnf(f.Body, false))
	case Unknown:
		panic("logic: NNF applied to a formula with unresolved unknowns")
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

// Namer hands out fresh variable names with a common prefix.
type Namer struct {
	prefix string
	n      int
}

// NewNamer returns a Namer producing prefix0, prefix1, ...
func NewNamer(prefix string) *Namer { return &Namer{prefix: prefix} }

// Fresh returns the next unused name.
func (nm *Namer) Fresh() string {
	nm.n++
	return nm.prefix + strconv.Itoa(nm.n)
}

// StandardizeApart renames every bound variable in f to a fresh name from nm,
// so that no two quantifiers bind the same name and no bound name collides
// with a free name. The input must be unknown-free.
func StandardizeApart(f Formula, nm *Namer) Formula {
	return standardize(f, nm, map[string]Term{})
}

func standardize(f Formula, nm *Namer, ren map[string]Term) Formula {
	switch f := f.(type) {
	case Atom:
		return Atom{Op: f.Op, X: SubstituteTerm(f.X, ren, nil), Y: SubstituteTerm(f.Y, ren, nil)}
	case Bool:
		return f
	case Not:
		return Neg(standardize(f.F, nm, ren))
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = standardize(g, nm, ren)
		}
		return Conj(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = standardize(g, nm, ren)
		}
		return Disj(out...)
	case Implies:
		return Imp(standardize(f.A, nm, ren), standardize(f.B, nm, ren))
	case Forall:
		vars, undo := renameBound(f.Vars, nm, ren)
		body := standardize(f.Body, nm, ren)
		undoRename(f.Vars, undo, ren)
		return All(vars, body)
	case Exists:
		vars, undo := renameBound(f.Vars, nm, ren)
		body := standardize(f.Body, nm, ren)
		undoRename(f.Vars, undo, ren)
		return Any(vars, body)
	case Unknown:
		panic("logic: StandardizeApart applied to a formula with unresolved unknowns")
	case AEq:
		return AEq{L: SubstituteArr(f.L, ren, nil), R: SubstituteArr(f.R, ren, nil)}
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

// renameBound binds each var to a fresh name in ren, in place, returning the
// fresh names and the shadowed previous bindings (nil entries mark names that
// were unbound). Mutate-and-undo keeps standardize from copying the whole
// rename map at every quantifier, which dominated its allocation volume.
func renameBound(vars []string, nm *Namer, ren map[string]Term) ([]string, []Term) {
	out := make([]string, len(vars))
	undo := make([]Term, len(vars))
	for i, v := range vars {
		fresh := nm.Fresh()
		out[i] = fresh
		undo[i] = ren[v]
		ren[v] = Var{Name: fresh}
	}
	return out, undo
}

// undoRename restores the bindings shadowed by renameBound, newest first so
// duplicate names within one quantifier unwind correctly.
func undoRename(vars []string, undo []Term, ren map[string]Term) {
	for i := len(vars) - 1; i >= 0; i-- {
		if undo[i] == nil {
			delete(ren, vars[i])
		} else {
			ren[vars[i]] = undo[i]
		}
	}
}

// Simplify performs shallow logical simplification: constant folding,
// flattening of nested conjunctions/disjunctions, removal of duplicate
// conjuncts/disjuncts, and evaluation of ground atoms over literals.
func Simplify(f Formula) Formula {
	switch f := f.(type) {
	case Atom:
		if x, ok := f.X.(IntLit); ok {
			if y, ok := f.Y.(IntLit); ok {
				return Bool{Val: evalRel(f.Op, x.Val, y.Val)}
			}
		}
		if TermEq(f.X, f.Y) {
			switch f.Op {
			case Eq, Le, Ge:
				return True
			case Neq, Lt, Gt:
				return False
			}
		}
		return f
	case Bool:
		return f
	case Not:
		return Neg(Simplify(f.F))
	case And:
		return simplifyJunction(false, f.Fs)
	case Or:
		return simplifyJunction(true, f.Fs)
	case Implies:
		return Imp(Simplify(f.A), Simplify(f.B))
	case Forall:
		return All(f.Vars, Simplify(f.Body))
	case Exists:
		return Any(f.Vars, Simplify(f.Body))
	case Unknown:
		return f
	case AEq:
		if ArrEq(f.L, f.R) {
			return True
		}
		return f
	}
	panic(fmt.Sprintf("logic: unknown formula %T", f))
}

func evalRel(op RelOp, x, y int64) bool {
	switch op {
	case Eq:
		return x == y
	case Neq:
		return x != y
	case Lt:
		return x < y
	case Le:
		return x <= y
	case Gt:
		return x > y
	case Ge:
		return x >= y
	}
	panic("logic: bad RelOp")
}

// simplifyJunction simplifies each operand and folds them with Junction.
func simplifyJunction(or bool, fs []Formula) Formula {
	j := Junction{Or: or}
	for _, g := range fs {
		if j.Add(Simplify(g)) {
			break
		}
	}
	return j.Formula()
}

// Junction is Simplify's rule for one conjunction (or, with Or set, one
// disjunction) over operands that are already simplified: the absorbing
// constant short-circuits, the neutral one is dropped, nested operands of the
// same kind are flattened, and structural duplicates are removed, keeping
// first occurrences in order. Simplify folds every And and Or through it, so
// a caller that rebuilds a simplified formula from memoized simplified parts
// gets exactly the structure Simplify would produce on the whole.
type Junction struct {
	Or  bool
	out []Formula
	hs  []uint64 // HashFormula of each operand in out
	// Past junctionScan operands, duplicates are found through tab, an
	// open-addressing table over hs (slot = operand index + 1, 0 = empty,
	// at most half full); below it a scan of hs is cheaper.
	tab      []int32
	absorbed bool
}

const junctionScan = 8

// Add appends one simplified operand and reports whether the junction is now
// decided by an absorbing constant (false for And, true for Or); further
// operands are then irrelevant.
func (j *Junction) Add(s Formula) bool { return j.add(s, 0, nil, false) }

// AddHashed is Add for an operand whose HashFormula is h; when s is a
// conjunction or disjunction, parts holds its operands' hashes.
func (j *Junction) AddHashed(s Formula, h uint64, parts []uint64) bool {
	return j.add(s, h, parts, true)
}

func (j *Junction) add(s Formula, h uint64, parts []uint64, known bool) bool {
	if j.absorbed {
		return true
	}
	var splice []Formula
	switch s := s.(type) {
	case Bool:
		if s.Val == j.Or {
			j.absorbed = true
			return true
		}
		return false
	case And:
		if !j.Or {
			splice = s.Fs
		}
	case Or:
		if j.Or {
			splice = s.Fs
		}
	}
	if splice != nil {
		for i, x := range splice {
			if known {
				j.addOne(x, parts[i])
			} else {
				n := 0
				j.addOne(x, HashFormula(x, &n))
			}
		}
		return false
	}
	if !known {
		n := 0
		h = HashFormula(s, &n)
	}
	j.addOne(s, h)
	return false
}

func (j *Junction) addOne(f Formula, h uint64) {
	if j.tab == nil {
		for i, x := range j.hs {
			if x == h && FormulaStructEq(j.out[i], f) {
				return
			}
		}
	} else {
		mask := uint64(len(j.tab) - 1)
		for i := h & mask; j.tab[i] != 0; i = (i + 1) & mask {
			if k := j.tab[i] - 1; j.hs[k] == h && FormulaStructEq(j.out[k], f) {
				return
			}
		}
	}
	j.out = append(j.out, f)
	j.hs = append(j.hs, h)
	switch n := len(j.out); {
	case n > junctionScan && 2*n > len(j.tab):
		j.rehash(4 * n)
	case j.tab != nil:
		j.place(int32(n - 1))
	}
}

// rehash rebuilds the duplicate table with at least size slots.
func (j *Junction) rehash(size int) {
	n := 16
	for n < size {
		n <<= 1
	}
	j.tab = make([]int32, n)
	for i := range j.out {
		j.place(int32(i))
	}
}

// place enters operand i into the duplicate table.
func (j *Junction) place(i int32) {
	mask := uint64(len(j.tab) - 1)
	k := j.hs[i] & mask
	for j.tab[k] != 0 {
		k = (k + 1) & mask
	}
	j.tab[k] = i + 1
}

// Grow reserves room for n more operands.
func (j *Junction) Grow(n int) {
	j.out = slices.Grow(j.out, n)
	j.hs = slices.Grow(j.hs, n)
}

// Reset empties the junction for reuse as a conjunction (or, with or set, a
// disjunction), keeping its buffers. A Formula or Result taken before Reset
// shares them, so it must not outlive the reuse.
func (j *Junction) Reset(or bool) {
	clear(j.out)
	j.Or, j.out, j.hs, j.tab, j.absorbed = or, j.out[:0], j.hs[:0], nil, false
}

// Len returns how many operands the junction holds.
func (j *Junction) Len() int { return len(j.out) }

// Absorbed reports whether an absorbing constant decided the junction.
func (j *Junction) Absorbed() bool { return j.absorbed }

// Formula returns the simplified junction: what Conj (Disj) returns on the
// kept operands, which hold no constants and no operand of the same kind.
// The junction must not be added to afterwards.
func (j *Junction) Formula() Formula {
	switch {
	case j.absorbed:
		return Bool{Val: j.Or}
	case len(j.out) == 0:
		return Bool{Val: !j.Or}
	case len(j.out) == 1:
		return j.out[0]
	case j.Or:
		return Or{Fs: j.out}
	}
	return And{Fs: j.out}
}

// Result returns Formula() together with its HashFormula and, when it is a
// conjunction or disjunction, its operands' hashes — what AddHashed takes.
func (j *Junction) Result() (f Formula, h uint64, parts []uint64) {
	f = j.Formula()
	switch {
	case j.absorbed || len(j.out) == 0:
		n := 0
		return f, HashFormula(f, &n), nil
	case len(j.out) > 1:
		return f, JunctionHash(j.Or, j.hs), j.hs
	}
	return f, j.hs[0], OperandHashes(f)
}

// OperandHashes returns the HashFormula of each operand of f when f is a
// conjunction or disjunction, else nil.
func OperandHashes(f Formula) []uint64 {
	var fs []Formula
	switch f := f.(type) {
	case And:
		fs = f.Fs
	case Or:
		fs = f.Fs
	default:
		return nil
	}
	hs := make([]uint64, len(fs))
	for i, g := range fs {
		n := 0
		hs[i] = HashFormula(g, &n)
	}
	return hs
}
