//go:build !race

package smt

import (
	"testing"

	"repro/internal/logic"
)

// TestInternLeqHitAllocs pins the grounder's atom hit path at zero
// allocations: a repeated inequality is built in the grounder's scratch
// form, looked up by its packed key without a string copy, and answered
// with its literal boxed when the atom was first interned — in either
// orientation.
func TestInternLeqHitAllocs(t *testing.T) {
	g := newGrounder()
	var x logic.Term = logic.Add{X: logic.Mul{C: 2, X: logic.V("i")}, Y: logic.I(3)}
	y := g.flattenTerm(logic.Sub{X: logic.V("n"), Y: logic.Sel(logic.ArrVar{Name: "A"}, logic.V("j"))})
	first := g.leq(x, y, 1)
	if _, ok := first.(pLit); !ok {
		t.Fatalf("2i+3 − (n − A[j]) + 1 ≤ 0 interned as %v", first)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if g.leq(x, y, 1) != first {
			t.Fatal("hit returned another literal")
		}
		g.leq(y, x, 0) // the same atom, negated
	})
	if allocs != 0 {
		t.Fatalf("internLeq hits allocated %.0f times per pair, want 0", allocs)
	}
	if len(g.forms) != 1 {
		t.Fatalf("%d atoms interned, want 1", len(g.forms))
	}
}
