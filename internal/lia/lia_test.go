package lia

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// mk builds a Lin from variable/coefficient pairs and a constant.
func mk(k int64, pairs ...any) Lin {
	l := NewLin()
	l.K = k
	for i := 0; i+1 < len(pairs); i += 2 {
		l.AddVar(pairs[i].(string), int64(pairs[i+1].(int)))
	}
	return l
}

func TestLinBasics(t *testing.T) {
	l := NewLin()
	l.AddVar("x", 1)
	l.AddVar("x", -1)
	if !l.IsConst() {
		t.Error("cancelled variable should leave a constant form")
	}
	l.AddVar("y", 2)
	m := l.Clone()
	m.Scale(3)
	if l.Coef["y"] != 2 || m.Coef["y"] != 6 {
		t.Errorf("clone/scale interaction: %v %v", l, m)
	}
}

func TestLinKeyCanonical(t *testing.T) {
	a := mk(1, "x", 1, "y", -1)
	b := NewLin()
	b.AddVar("y", -1)
	b.AddVar("x", 1)
	b.K = 1
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
}

func TestNegateRoundTrip(t *testing.T) {
	// ¬(¬(l ≤ 0)) over the integers is l ≤ 0 again.
	l := mk(3, "x", 2, "y", -5)
	back := l.Negate().Negate()
	if l.Key() != back.Key() {
		t.Errorf("double negation changed the constraint: %q vs %q", l.Key(), back.Key())
	}
}

func TestCheckSimple(t *testing.T) {
	cases := []struct {
		name string
		cons []Lin
		sat  bool
	}{
		{"empty", nil, true},
		{"x<=5", []Lin{mk(-5, "x", 1)}, true},
		{"x<=0 and x>=1", []Lin{mk(0, "x", 1), mk(1, "x", -1)}, false},
		{"x<=y, y<=z, z<=x", []Lin{mk(0, "x", 1, "y", -1), mk(0, "y", 1, "z", -1), mk(0, "z", 1, "x", -1)}, true},
		{"strict cycle", []Lin{mk(1, "x", 1, "y", -1), mk(1, "y", 1, "x", -1)}, false},
		{"const violated", []Lin{mk(1)}, false},
		{"const fine", []Lin{mk(0)}, true},
		{"x-y<=-1, y-z<=-1, x>=z", []Lin{mk(1, "x", 1, "y", -1), mk(1, "y", 1, "z", -1), mk(0, "z", 1, "x", -1)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Check(tc.cons)
			if res.Sat != tc.sat {
				t.Errorf("Check = %v, want sat=%v", res, tc.sat)
			}
			if !res.Sat && len(res.Conflict) == 0 {
				t.Error("unsat result must name a conflict subset")
			}
		})
	}
}

func TestConflictIsMinimalForDifferenceCycle(t *testing.T) {
	// Three constraints form the negative cycle; two extras are irrelevant.
	cons := []Lin{
		mk(0, "a", 1, "b", -1), // a <= b (irrelevant)
		mk(1, "x", 1, "y", -1), // x < y
		mk(1, "y", 1, "z", -1), // y < z
		mk(0, "z", 1, "x", -1), // z <= x
		mk(-7, "q", 1),         // q <= 7 (irrelevant)
	}
	res := Check(cons)
	if res.Sat {
		t.Fatal("should be unsat")
	}
	for _, ci := range res.Conflict {
		if ci == 0 || ci == 4 {
			t.Errorf("irrelevant constraint %d in conflict %v", ci, res.Conflict)
		}
	}
	if len(res.Conflict) != 3 {
		t.Errorf("conflict should have exactly the 3-edge cycle, got %v", res.Conflict)
	}
}

func TestGeneralLinearFM(t *testing.T) {
	// 2x + 3y <= 6, x >= 2, y >= 1 → 4+3 <= 6 false.
	cons := []Lin{
		mk(-6, "x", 2, "y", 3),
		mk(2, "x", -1),
		mk(1, "y", -1),
	}
	if res := Check(cons); res.Sat {
		t.Error("2x+3y<=6, x>=2, y>=1 should be unsat")
	}
	// Relax: x >= 1 → 2+3 <= 6 fine.
	cons[1] = mk(1, "x", -1)
	if res := Check(cons); !res.Sat {
		t.Error("2x+3y<=6, x>=1, y>=1 should be sat")
	}
}

func TestIntegerTightening(t *testing.T) {
	// 2x <= 1 and x >= 1: over the rationals x=0.5 works, over ints no.
	cons := []Lin{
		mk(-1, "x", 2),
		mk(1, "x", -1),
	}
	if res := Check(cons); res.Sat {
		t.Error("2x<=1 && x>=1 should be unsat over the integers")
	}
}

func TestThreeVarFM(t *testing.T) {
	// k2 + i <= n-1, k2 >= n-1-i: boundary is satisfiable.
	cons := []Lin{
		mk(1, "k2", 1, "i", 1, "n", -1),   // k2 + i - n + 1 <= 0
		mk(-1, "n", 1, "i", -1, "k2", -1), // n - i - k2 - 1 <= 0
	}
	if res := Check(cons); !res.Sat {
		t.Error("boundary equality should be satisfiable")
	}
	// Force a gap: k2 + i <= n - 2 and k2 + i >= n - 1.
	cons = []Lin{
		mk(2, "k2", 1, "i", 1, "n", -1),
		mk(-1, "n", 1, "i", -1, "k2", -1),
	}
	if res := Check(cons); res.Sat {
		t.Error("contradictory 3-var bounds should be unsat")
	}
}

// TestRandomDifferenceAgainstEvaluation generates random difference systems
// and checks that "sat" answers admit the witness implied by shortest paths:
// we simply re-verify internal consistency by brute force over a small box.
func TestRandomDifferenceAgainstBox(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"a", "b", "c"}
	for round := 0; round < 300; round++ {
		var cons []Lin
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			l := NewLin()
			x, y := names[rng.Intn(3)], names[rng.Intn(3)]
			if x == y {
				l.AddVar(x, 1)
			} else {
				l.AddVar(x, 1)
				l.AddVar(y, -1)
			}
			l.K = int64(rng.Intn(7) - 3)
			cons = append(cons, l)
		}
		got := Check(cons).Sat
		want := boxSat(cons, names, -6, 6)
		// The box bound [-6,6] may miss models of genuinely sat systems;
		// only a box model with an unsat verdict is a definite bug.
		if want && !got {
			t.Fatalf("round %d: box found a model but Check said unsat: %v", round, cons)
		}
	}
}

func boxSat(cons []Lin, names []string, lo, hi int64) bool {
	assign := map[string]int64{}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			for _, c := range cons {
				v := c.K
				for name, coef := range c.Coef {
					v += coef * assign[name]
				}
				if v > 0 {
					return false
				}
			}
			return true
		}
		for v := lo; v <= hi; v++ {
			assign[names[i]] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

func TestLinKeyQuickCheck(t *testing.T) {
	// Property: Key is insensitive to insertion order of variables.
	f := func(coefs [4]int8, k int8) bool {
		names := []string{"p", "q", "r", "s"}
		fwd, rev := NewLin(), NewLin()
		fwd.K, rev.K = int64(k), int64(k)
		for i, c := range coefs {
			fwd.AddVar(names[i], int64(c))
		}
		for i := len(coefs) - 1; i >= 0; i-- {
			rev.AddVar(names[i], int64(coefs[i]))
		}
		return fwd.Key() == rev.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fmtKey is the fmt-based formatting Key replaced; the store persists keys,
// so Key must stay byte-identical to it.
func fmtKey(l Lin) string {
	vars := make([]string, 0, len(l.Coef))
	for v := range l.Coef {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var b strings.Builder
	for _, v := range vars {
		fmt.Fprintf(&b, "%+d*%s", l.Coef[v], v)
	}
	fmt.Fprintf(&b, "%+d", l.K)
	return b.String()
}

// TestLinKeyMatchesFmt compares Key against the fmt oracle on random forms:
// negative, zero and extreme coefficients and constants, and up to 40
// variables with names of varied length.
func TestLinKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	extremes := []int64{0, 1, -1, 9, -10, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32}
	draw := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return extremes[rng.Intn(len(extremes))]
		case 1:
			return rng.Int63n(2001) - 1000
		}
		return int64(rng.Uint64())
	}
	for i := 0; i < 5000; i++ {
		l := Lin{Coef: map[string]int64{}, K: draw()}
		for n := rng.Intn(41); n > 0; n-- {
			name := fmt.Sprintf("%s%d", strings.Repeat("v", 1+rng.Intn(12)), rng.Intn(1000))
			l.Coef[name] = draw() // zero kept: Key must format whatever the map holds
		}
		if got, want := l.Key(), fmtKey(l); got != want {
			t.Fatalf("form %d: Key %q, fmt %q", i, got, want)
		}
	}
}
