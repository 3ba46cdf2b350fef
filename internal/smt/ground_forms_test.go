package smt

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lia"
	"repro/internal/logic"
)

// namedLinOf is the string-keyed linear form of a pure arithmetic term, as
// the grounder built it before its forms went dense: the reference for
// atom orientation and for occurrence names.
func namedLinOf(t logic.Term) lia.Lin {
	switch t := t.(type) {
	case logic.Var:
		l := lia.NewLin()
		l.AddVar(t.Name, 1)
		return l
	case logic.IntLit:
		l := lia.NewLin()
		l.K = t.Val
		return l
	case logic.Add:
		l := namedLinOf(t.X)
		l.AddLin(namedLinOf(t.Y), 1)
		return l
	case logic.Sub:
		l := namedLinOf(t.X)
		l.AddLin(namedLinOf(t.Y), -1)
		return l
	case logic.Mul:
		l := namedLinOf(t.X)
		l.Scale(t.C)
		return l
	}
	panic("namedLinOf: non-arithmetic term")
}

// randArith builds a random pure arithmetic term over names that share
// prefixes, with constants up to the int64 extremes (so constants wrap) and
// small non-zero multipliers (logic.Times never builds a zero one).
func randArith(rng *rand.Rand, depth int) logic.Term {
	names := []string{"i", "i1", "i10", "n", "sel$A(+1*i+0)", "sel$A(+1*i-1)", "app$f(-1*n+2)"}
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(3) == 0 {
			return logic.I([]int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64}[rng.Intn(6)])
		}
		return logic.V(names[rng.Intn(len(names))])
	}
	switch rng.Intn(3) {
	case 0:
		return logic.Add{X: randArith(rng, depth-1), Y: randArith(rng, depth-1)}
	case 1:
		return logic.Sub{X: randArith(rng, depth-1), Y: randArith(rng, depth-1)}
	}
	return logic.Mul{C: []int64{-3, -2, -1, 2, 3}[rng.Intn(5)], X: randArith(rng, depth-1)}
}

// TestGrounderMatchesNamedForms checks the grounder's dense atoms against
// the named rules on random terms: every leq interns the orientation
// Key() <= Negate().Key() picks, with the same negation flag, a constant
// comparison folds to the same constant, and registerApp names each
// occurrence exactly as the named keys spell it — the names persist in
// lemma records, so they must not change.
func TestGrounderMatchesNamedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	g := newGrounder()
	for i := 0; i < 5000; i++ {
		x, y := randArith(rng, 3), randArith(rng, 3)
		off := []int64{0, 1, math.MaxInt64}[rng.Intn(3)]
		l := namedLinOf(x)
		l.AddLin(namedLinOf(y), -1)
		l.K += off
		p := g.leq(x, y, off)
		if l.IsConst() {
			if p != (pConst{val: l.K <= 0}) {
				t.Fatalf("case %d: %q folds to %v", i, l.Key(), p)
			}
			continue
		}
		want, wantNeg := l, false
		if neg := l.Negate(); neg.Key() < l.Key() {
			want, wantNeg = neg, true
		}
		pl, ok := p.(pLit)
		if !ok {
			t.Fatalf("case %d: %q interned as %v, want a literal", i, l.Key(), p)
		}
		if got := g.named([]int{pl.atom})[0].Key(); pl.neg != wantNeg || got != want.Key() {
			t.Fatalf("case %d: %q interned as atom %q negated=%v, want atom %q negated=%v",
				i, l.Key(), got, pl.neg, want.Key(), wantNeg)
		}

		args := []logic.Term{x, y}[:1+rng.Intn(2)]
		keys := make([]string, len(args))
		for k, a := range args {
			keys[k] = namedLinOf(a).Key()
		}
		wantName := "sel$B(" + strings.Join(keys, ";") + ")"
		if got := g.registerApp("sel$B", args).(logic.Var).Name; got != wantName {
			t.Fatalf("case %d: occurrence named %q, want %q", i, got, wantName)
		}
	}
}
