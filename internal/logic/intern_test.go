package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Random formula generator for property-testing the interning layer.

type genOpts struct {
	unknowns bool // allow Unknown nodes (NNF panics on them)
	arrays   bool // allow Select/Store/AEq nodes
}

var genVars = []string{"x", "y", "z", "i", "j"}
var genArrs = []string{"A", "B"}

func randTerm(r *rand.Rand, depth int, opts genOpts) Term {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return Var{Name: genVars[r.Intn(len(genVars))]}
		}
		return IntLit{Val: int64(r.Intn(7) - 3)}
	}
	switch r.Intn(7) {
	case 0:
		return Var{Name: genVars[r.Intn(len(genVars))]}
	case 1:
		return IntLit{Val: int64(r.Intn(7) - 3)}
	case 2:
		return Plus(randTerm(r, depth-1, opts), randTerm(r, depth-1, opts))
	case 3:
		return Minus(randTerm(r, depth-1, opts), randTerm(r, depth-1, opts))
	case 4:
		return Times(int64(r.Intn(5)-2), randTerm(r, depth-1, opts))
	case 5:
		if opts.arrays {
			return Sel(randArr(r, depth-1, opts), randTerm(r, depth-1, opts))
		}
		return Add{X: randTerm(r, depth-1, opts), Y: randTerm(r, depth-1, opts)}
	default:
		return App("f", randTerm(r, depth-1, opts))
	}
}

func randArr(r *rand.Rand, depth int, opts genOpts) Arr {
	if depth <= 0 || r.Intn(3) > 0 {
		return ArrVar{Name: genArrs[r.Intn(len(genArrs))]}
	}
	return Upd(randArr(r, depth-1, opts), randTerm(r, depth-1, opts), randTerm(r, depth-1, opts))
}

func randFormula(r *rand.Rand, depth int, opts genOpts) Formula {
	ops := []RelOp{Eq, Neq, Lt, Le, Gt, Ge}
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Bool{Val: r.Intn(2) == 0}
		default:
			return Atom{Op: ops[r.Intn(len(ops))], X: randTerm(r, 1, opts), Y: randTerm(r, 1, opts)}
		}
	}
	n := r.Intn(10)
	switch {
	case n == 0:
		return Neg(randFormula(r, depth-1, opts))
	case n == 1:
		return Not{F: randFormula(r, depth-1, opts)}
	case n == 2 || n == 3:
		fs := make([]Formula, 1+r.Intn(3))
		for i := range fs {
			fs[i] = randFormula(r, depth-1, opts)
		}
		if n == 2 {
			return Conj(fs...)
		}
		return Disj(fs...)
	case n == 4:
		return Imp(randFormula(r, depth-1, opts), randFormula(r, depth-1, opts))
	case n == 5:
		return All([]string{"q"}, randFormula(r, depth-1, opts))
	case n == 6:
		return Any([]string{"q"}, randFormula(r, depth-1, opts))
	case n == 7 && opts.unknowns:
		return Unknown{Name: fmt.Sprintf("u%d", r.Intn(3))}
	case n == 8 && opts.arrays:
		return ArrEqF(randArr(r, depth-1, opts), randArr(r, depth-1, opts))
	default:
		return Atom{Op: ops[r.Intn(len(ops))], X: randTerm(r, 1, opts), Y: randTerm(r, 1, opts)}
	}
}

func randEnv(r *rand.Rand) *Env {
	env := NewEnv(-2, 4)
	for _, v := range genVars {
		env.Ints[v] = int64(r.Intn(9) - 4)
	}
	env.Ints["q"] = 0
	for _, a := range genArrs {
		cells := make([]int64, 5)
		for i := range cells {
			cells[i] = int64(r.Intn(9) - 4)
		}
		env.SetArr(a, cells)
	}
	return env
}

// TestInternObservational checks that routing a formula through the interner
// is observationally invisible: the canonical representative prints,
// NNF-converts, simplifies, negates, and evaluates exactly like the value
// built by the plain constructors.
func TestInternObservational(t *testing.T) {
	r := rand.New(rand.NewSource(20090615))
	for trial := 0; trial < 2000; trial++ {
		opts := genOpts{unknowns: trial%3 == 0, arrays: trial%2 == 0}
		f := randFormula(r, 1+r.Intn(4), opts)
		n := Intern(f)
		g := n.Formula()
		if g.String() != f.String() {
			t.Fatalf("trial %d: interned representative prints differently:\n  f=%s\n  g=%s", trial, f, g)
		}
		if !FormulaStructEq(f, g) || !FormulaEq(f, g) {
			t.Fatalf("trial %d: interned representative not structurally equal to input: %s", trial, f)
		}
		if Simplify(f).String() != n.Simplified().Formula().String() {
			t.Fatalf("trial %d: memoized Simplify diverges on %s", trial, f)
		}
		if Neg(f).String() != n.Negated().Formula().String() {
			t.Fatalf("trial %d: memoized Neg diverges on %s", trial, f)
		}
		if !opts.unknowns && !opts.arrays {
			if NNF(f).String() != NNF(g).String() {
				t.Fatalf("trial %d: NNF of the interned representative diverges on %s", trial, f)
			}
		}
		if !opts.unknowns {
			env := randEnv(r)
			if env.EvalFormula(f) != env.EvalFormula(g) {
				t.Fatalf("trial %d: interned representative evaluates differently on %s", trial, f)
			}
		}
	}
}

// TestInternPointerUnique checks the core hash-consing guarantee: two
// structurally equal formulas built independently intern to the same
// pointer, and unequal ones do not.
func TestInternPointerUnique(t *testing.T) {
	for trial := 0; trial < 500; trial++ {
		// Two generators with the same seed produce identical-but-distinct
		// value trees.
		r1 := rand.New(rand.NewSource(int64(trial)))
		r2 := rand.New(rand.NewSource(int64(trial)))
		opts := genOpts{unknowns: true, arrays: true}
		f := randFormula(r1, 3, opts)
		g := randFormula(r2, 3, opts)
		nf, ng := Intern(f), Intern(g)
		if nf != ng {
			t.Fatalf("trial %d: equal formulas interned to distinct handles: %s", trial, f)
		}
		if nf.Hash() != ng.Hash() || nf.ID() != ng.ID() {
			t.Fatalf("trial %d: handle metadata differs for equal formulas", trial)
		}
		want := 0
		HashFormula(f, &want)
		if nf.Size() != want {
			t.Fatalf("trial %d: size %d, want %d", trial, nf.Size(), want)
		}
	}
	a := Intern(LtF(V("x"), V("y")))
	b := Intern(LtF(V("y"), V("x")))
	if a == b {
		t.Fatalf("distinct formulas interned to the same handle")
	}
}

// TestTrivialVerdict pins the satellite fast path: constants, ground literal
// atoms, and reflexive atoms get verdicts; everything else is passed on.
func TestTrivialVerdict(t *testing.T) {
	cases := []struct {
		f       Formula
		verdict bool
		ok      bool
	}{
		{True, true, true},
		{False, false, true},
		{LeF(I(1), I(2)), true, true},
		{GtF(I(1), I(2)), false, true},
		{EqF(V("x"), V("x")), true, true},
		{LeF(Plus(V("x"), I(1)), Plus(V("x"), I(1))), true, true},
		{NeqF(V("x"), V("x")), false, true},
		{LtF(V("x"), V("x")), false, true},
		{LtF(V("x"), V("y")), false, false},
		{GtF(Plus(V("x"), I(1)), V("x")), false, false},
		{Conj(True, LtF(V("x"), V("y"))), false, false},
	}
	for _, c := range cases {
		v, ok := TrivialVerdict(c.f)
		if ok != c.ok || (ok && v != c.verdict) {
			t.Errorf("TrivialVerdict(%s) = (%v, %v), want (%v, %v)", c.f, v, ok, c.verdict, c.ok)
		}
	}
}

// TestInternRace hammers the interner (and the memo slots) from 32
// goroutines over a shared pool of formulas; run under -race this verifies
// the concurrency claims. Every goroutine must observe identical canonical
// pointers.
func TestInternRace(t *testing.T) {
	const goroutines = 32
	r := rand.New(rand.NewSource(42))
	pool := make([]Formula, 128)
	for i := range pool {
		pool[i] = randFormula(r, 3, genOpts{arrays: i%2 == 0})
	}
	handles := make([][]*IFormula, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hs := make([]*IFormula, len(pool))
			for i, f := range pool {
				n := Intern(f)
				n.Simplified()
				n.Negated()
				_ = n.Hash()
				hs[i] = n
			}
			handles[g] = hs
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range pool {
			if handles[g][i] != handles[0][i] {
				t.Fatalf("goroutine %d interned pool[%d] to a different handle", g, i)
			}
		}
	}
}

// Microbenchmarks: O(1) interned equality/hashing vs the String()-based
// scheme the solver used before.

func benchFormula() Formula {
	r := rand.New(rand.NewSource(7))
	return randFormula(r, 5, genOpts{arrays: true})
}

func BenchmarkFormulaEqStruct(b *testing.B) {
	f := benchFormula()
	g := Intern(f).Formula()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !FormulaStructEq(f, g) {
			b.Fatal("unequal")
		}
	}
}

func BenchmarkFormulaEqString(b *testing.B) {
	f := benchFormula()
	g := Intern(f).Formula()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.String() != g.String() {
			b.Fatal("unequal")
		}
	}
}

func BenchmarkHashFormula(b *testing.B) {
	f := benchFormula()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		HashFormula(f, &n)
	}
}

func BenchmarkStringKey(b *testing.B) {
	f := benchFormula()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.String()
	}
}

func BenchmarkIntern(b *testing.B) {
	f := benchFormula()
	Intern(f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intern(f)
	}
}

// TestComposedHashes checks that the connective hash helpers compute
// HashFormula from operand hashes alone, and that a Junction fed operands
// with known hashes (AddHashed) builds what Simplify builds, with the hashes
// Result reports.
func TestComposedHashes(t *testing.T) {
	hash := func(f Formula) uint64 {
		n := 0
		return HashFormula(f, &n)
	}
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 2000; trial++ {
		opts := genOpts{arrays: trial%2 == 0}
		a, b := randFormula(r, 1+r.Intn(3), opts), randFormula(r, 1+r.Intn(3), opts)
		fs := []Formula{a, b, randFormula(r, 2, opts)}
		hs := []uint64{hash(fs[0]), hash(fs[1]), hash(fs[2])}
		switch {
		case JunctionHash(false, hs) != hash(And{Fs: fs}), JunctionHash(true, hs) != hash(Or{Fs: fs}):
			t.Fatalf("trial %d: junction hash differs for %v", trial, fs)
		case NotHash(hs[0]) != hash(Not{F: a}):
			t.Fatalf("trial %d: not hash differs for %s", trial, a)
		case ImpliesHash(hs[0], hs[1]) != hash(Implies{A: a, B: b}):
			t.Fatalf("trial %d: implication hash differs for %s, %s", trial, a, b)
		case QuantHash(false, []string{"q"}, hs[0]) != hash(Forall{Vars: []string{"q"}, Body: a}),
			QuantHash(true, []string{"q"}, hs[0]) != hash(Exists{Vars: []string{"q"}, Body: a}):
			t.Fatalf("trial %d: quantifier hash differs for %s", trial, a)
		}
		for _, or := range []bool{false, true} {
			j := Junction{Or: or}
			for _, g := range fs {
				s := Simplify(g)
				if j.AddHashed(s, hash(s), OperandHashes(s)) {
					break
				}
			}
			want := Simplify(And{Fs: fs})
			if or {
				want = Simplify(Or{Fs: fs})
			}
			got, h, parts := j.Result()
			if !FormulaStructEq(got, want) || h != hash(want) {
				t.Fatalf("trial %d: junction built %s (hash %x), Simplify %s (hash %x)", trial, got, h, want, hash(want))
			}
			if ws := OperandHashes(want); fmt.Sprint(parts) != fmt.Sprint(ws) {
				t.Fatalf("trial %d: junction operand hashes %v, want %v", trial, parts, ws)
			}
		}
	}
}

// TestJunctionLargeDedup drives Junction past its linear scan into the
// hash table with many duplicate operands.
func TestJunctionLargeDedup(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := make([]Formula, 12)
	for i := range pool {
		pool[i] = Atom{Op: Lt, X: V(genVars[i%len(genVars)]), Y: I(int64(i))}
	}
	for trial := 0; trial < 200; trial++ {
		fs := make([]Formula, 5+r.Intn(60))
		for i := range fs {
			fs[i] = pool[r.Intn(len(pool))]
			if r.Intn(4) == 0 {
				fs[i] = Or{Fs: []Formula{pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]}}
			}
		}
		var j Junction
		for _, g := range fs {
			j.Add(Simplify(g))
		}
		if got, want := j.Formula(), Simplify(And{Fs: fs}); !FormulaStructEq(got, want) {
			t.Fatalf("trial %d: junction %s, Simplify %s", trial, got, want)
		}
		seen := map[string]bool{}
		for _, g := range j.Formula().(And).Fs {
			if seen[g.String()] {
				t.Fatalf("trial %d: duplicate operand %s", trial, g)
			}
			seen[g.String()] = true
		}
	}
}
