package optimal

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/smt"
	"repro/internal/template"
)

// randAtom draws a difference-fragment atom (x − y ▷◁ k or x ▷◁ k), the
// fragment every benchmark vocabulary lives in.
func randAtom(rng *rand.Rand) logic.Formula {
	vars := []string{"x", "y", "z"}
	ops := []logic.RelOp{logic.Eq, logic.Lt, logic.Le, logic.Gt, logic.Ge}
	lhs := logic.Term(logic.V(vars[rng.Intn(len(vars))]))
	rhs := logic.Term(logic.I(int64(rng.Intn(5) - 2)))
	if rng.Intn(2) == 0 {
		rhs = logic.Plus(logic.V(vars[rng.Intn(len(vars))]), rhs)
	}
	return logic.Rel(ops[rng.Intn(len(ops))], lhs, rhs)
}

// TestMapVsBFSRandomLattice cross-checks the map-solver-guided enumeration
// against the reference BFS on hundreds of randomized small lattices: random
// targets, random vocabularies, one or two negative unknowns sharing a
// group. Both engines are fresh per trial (no shared cores or memos), and
// the optimal solution sets must be equal as sets.
func TestMapVsBFSRandomLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		// One or two unknowns in the antecedent keep them in one
		// unknown-connected group, the shape negSearch enumerates.
		nUnknowns := 1 + rng.Intn(2)
		q := template.Domain{}
		ante := []logic.Formula{}
		for u := 0; u < nUnknowns; u++ {
			name := fmt.Sprintf("u%d", u)
			n := 2 + rng.Intn(4)
			preds := make([]logic.Formula, n)
			for i := range preds {
				preds[i] = randAtom(rng)
			}
			q[name] = preds
			ante = append(ante, logic.Unknown{Name: name})
		}
		if rng.Intn(2) == 0 {
			ante = append(ante, randAtom(rng))
		}
		phi := logic.Imp(logic.Conj(ante...), randAtom(rng))

		mapEng := New(smt.NewSolver(smt.Options{}))
		bfsEng := New(smt.NewSolver(smt.Options{}))
		mapSols := mapEng.OptimalNegativeSolutions(phi, q)
		bfsSols := bfsEng.bfsNegativeSolutions(phi, q)
		mk, bk := solutionKeys(mapSols), solutionKeys(bfsSols)
		if len(mk) != len(bk) {
			t.Fatalf("trial %d: map found %d solutions, bfs %d, on %v over %v\nmap: %v\nbfs: %v",
				trial, len(mk), len(bk), phi, q, mk, bk)
		}
		for k := range mk {
			if !bk[k] {
				t.Fatalf("trial %d: map-only solution %s on %v over %v", trial, k, phi, q)
			}
		}
	}
}

// TestMapVsBFSSharedEngine repeats the cross-check through the CrossCheck
// hook on a single engine, so both enumerations run against the same core
// store, consistency memo, and incremental contexts — the configuration the
// production search actually uses.
func TestMapVsBFSSharedEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	eng := New(smt.NewSolver(smt.Options{}))
	checked := 0
	eng.Opts.CrossCheck = func(phi logic.Formula, mapSols, bfsSols []template.Solution) {
		checked++
		mk, bk := solutionKeys(mapSols), solutionKeys(bfsSols)
		if len(mk) != len(bk) {
			t.Errorf("map found %d solutions, bfs %d, on %v", len(mk), len(bk), phi)
			return
		}
		for k := range mk {
			if !bk[k] {
				t.Errorf("map-only solution %s on %v", k, phi)
			}
		}
	}
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(4)
		preds := make([]logic.Formula, n)
		for i := range preds {
			preds[i] = randAtom(rng)
		}
		q := template.Domain{"u": preds}
		var ante logic.Formula = logic.Unknown{Name: "u"}
		if rng.Intn(2) == 0 {
			ante = logic.Conj(ante, randAtom(rng))
		}
		eng.OptimalNegativeSolutions(logic.Imp(ante, randAtom(rng)), q)
	}
	if checked == 0 {
		t.Fatal("CrossCheck hook never fired")
	}
}
