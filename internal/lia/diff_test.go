package lia

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomDiffAtoms generates atoms in the difference fragment: x−y+k ≤ 0,
// ±x+k ≤ 0, and pure constants k ≤ 0.
func randomDiffAtoms(rng *rand.Rand, n int) []Lin {
	names := []string{"a", "b", "c", "d", "e"}
	atoms := make([]Lin, 0, n)
	for i := 0; i < n; i++ {
		l := NewLin()
		switch rng.Intn(4) {
		case 0: // x − y + k ≤ 0
			x, y := rng.Intn(len(names)), rng.Intn(len(names))
			for x == y {
				y = rng.Intn(len(names))
			}
			l.AddVar(names[x], 1)
			l.AddVar(names[y], -1)
		case 1: // x + k ≤ 0
			l.AddVar(names[rng.Intn(len(names))], 1)
		case 2: // −x + k ≤ 0
			l.AddVar(names[rng.Intn(len(names))], -1)
		case 3: // k ≤ 0
		}
		l.K = int64(rng.Intn(7) - 3)
		atoms = append(atoms, l)
	}
	return atoms
}

// TestDiffCheckerMatchesCheck pins the dense batch Bellman–Ford (the
// bellmanFord oracle over a DiffChecker's precomputed edges) to the named
// Check (namedCheck, Bellman–Ford over string-keyed forms): for random
// difference atom sets and random polarities, both the verdict and the
// conflict set must be identical.
func TestDiffCheckerMatchesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		atoms := randomDiffAtoms(rng, 1+rng.Intn(8))
		dc, ok := NewDiffChecker(formsOf(NewVars(), atoms))
		if !ok {
			t.Fatalf("trial %d: difference atoms rejected: %v", trial, atoms)
		}
		assign := make([]bool, len(atoms))
		for round := 0; round < 8; round++ {
			cons := make([]Lin, len(atoms))
			for i := range atoms {
				assign[i] = rng.Intn(2) == 0
				if assign[i] {
					cons[i] = atoms[i]
				} else {
					cons[i] = atoms[i].Negate()
				}
			}
			want := namedCheck(cons)
			got := bellmanFord(dc, assign)
			if got.Sat != want.Sat || !reflect.DeepEqual(got.Conflict, want.Conflict) {
				t.Fatalf("trial %d round %d: atoms=%v assign=%v:\n got %+v\nwant %+v",
					trial, round, atoms, assign, got, want)
			}
		}
	}
}

func TestDiffCheckerRejectsNonDifference(t *testing.T) {
	l := NewLin()
	l.AddVar("x", 2)
	l.AddVar("y", -1)
	if _, ok := NewDiffChecker([]Form{NewVars().Form(l)}); ok {
		t.Fatalf("2x − y accepted as difference constraint")
	}
}

func TestDiffCheckerEmpty(t *testing.T) {
	dc, ok := NewDiffChecker(nil)
	if !ok {
		t.Fatalf("empty atom set rejected")
	}
	if res := dc.Check(nil); !res.Sat {
		t.Fatalf("empty conjunction unsat: %+v", res)
	}
}

func BenchmarkDiffCheckerCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	atoms := randomDiffAtoms(rng, 24)
	dc, ok := NewDiffChecker(formsOf(NewVars(), atoms))
	if !ok {
		b.Fatal("atoms rejected")
	}
	assigns := make([][]bool, 16)
	for i := range assigns {
		assigns[i] = make([]bool, len(atoms))
		for j := range assigns[i] {
			assigns[i][j] = rng.Intn(2) == 0
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Check(assigns[i%len(assigns)])
	}
}

func BenchmarkCheckPerIteration(b *testing.B) {
	// The pre-DiffChecker per-iteration cost: Negate clones for false atoms
	// plus Check rebuilding its graph.
	rng := rand.New(rand.NewSource(11))
	atoms := randomDiffAtoms(rng, 24)
	assigns := make([][]bool, 16)
	for i := range assigns {
		assigns[i] = make([]bool, len(atoms))
		for j := range assigns[i] {
			assigns[i][j] = rng.Intn(2) == 0
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign := assigns[i%len(assigns)]
		cons := make([]Lin, 0, len(atoms))
		for j, v := range assign {
			if v {
				cons = append(cons, atoms[j])
			} else {
				cons = append(cons, atoms[j].Negate())
			}
		}
		Check(cons)
	}
}
