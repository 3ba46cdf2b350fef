//go:build !race

package lia

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// linCheckAllocs bounds the allocations of one LinChecker.Check that runs a
// full elimination and finds the system satisfiable (so no conflict is
// returned): the elimination works in the checker's reused fmState, and a
// warmed checker allocates nothing. The string-keyed engine it replaced
// allocated 77 times per such check of this system (five derived
// constraints).
const linCheckAllocs = 0

// TestLinCheckerCheckAllocs re-checks a satisfiable assignment of a general
// system on a warmed checker and requires the elimination to stay within
// linCheckAllocs: a scratch buffer that stops being reused shows here.
func TestLinCheckerCheckAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"x", "y", "z", "w"}
	vars := NewVars()
	var atoms []Form
	for len(atoms) < 8 {
		l := genGeneralLin(rng, names)
		l.K -= 40 // slack: every polarity choice below stays satisfiable
		if !l.IsConst() {
			atoms = append(atoms, vars.Form(l))
		}
	}
	var ctr stats.Counters
	chk := NewLinChecker(vars, atoms, &ctr, stats.FMIncremental)
	assign := make([]bool, len(atoms))
	for i := range assign {
		assign[i] = true
	}
	if res := chk.Check(assign); !res.Sat || res.Truncated {
		t.Fatalf("system not decided satisfiable: %+v", res)
	}
	allocs := testing.AllocsPerRun(100, func() { chk.Check(assign) })
	t.Logf("elimination run allocated %.0f times (bound %d)", allocs, linCheckAllocs)
	if allocs > linCheckAllocs {
		t.Fatalf("an elimination-run Check allocated %.0f times, bound %d", allocs, linCheckAllocs)
	}
	if n := ctr[stats.FMIncremental].Load(); n < 100 {
		t.Fatalf("%d eliminations ran; want every check an elimination", n)
	}
}
