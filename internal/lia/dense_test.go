package lia

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// drawCoef draws a coefficient or constant: zero, ±1, the int64 extremes,
// small values, or a large one whose products wrap.
func drawCoef(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return []int64{0, 1, -1, math.MinInt64, math.MaxInt64}[rng.Intn(5)]
	case 1:
		return int64(rng.Uint64())
	case 2:
		return (rng.Int63n(7) - 3) << (32 + rng.Intn(30))
	}
	return rng.Int63n(13) - 6
}

// TestFormKeyMatchesLin checks the dense forms against the named rules on
// random forms with zero, ±1 and extreme coefficients over names that share
// long prefixes (so name order and id order disagree): Form.Key equals
// Lin.Key for a form and for its negation, Positive is exactly the named
// orientation rule Key() <= Negate().Key(), the packed key is injective,
// and naming a form back gives the Lin it came from.
func TestFormKeyMatchesLin(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	names := []string{"x", "x1", "x10", "x1a", "y", "sel$A(+1*i+0)", "sel$A(+1*i-1)", "sel$A(-1*i+0)", "app$f(+1*x+0)", "i", "n"}
	vars := NewVars()
	// Number the names in a shuffled order, so ids do not follow names.
	for _, i := range rng.Perm(len(names)) {
		vars.ID(names[i])
	}
	packed := map[string]string{}
	for i := 0; i < 5000; i++ {
		l := NewLin()
		for _, v := range names {
			if rng.Intn(3) == 0 {
				l.AddVar(v, drawCoef(rng)) // a zero draw leaves v out
			}
		}
		l.K = drawCoef(rng)
		f := vars.Form(l)
		if got, want := f.Key(vars), l.Key(); got != want {
			t.Fatalf("form %d: Form.Key %q, Lin.Key %q", i, got, want)
		}
		if got, want := f.Negate().Key(vars), l.Negate().Key(); got != want {
			t.Fatalf("form %d: negated Form.Key %q, Lin.Key %q", i, got, want)
		}
		if back := vars.Lin(f); back.Key() != l.Key() {
			t.Fatalf("form %d: named back as %q, want %q", i, back.Key(), l.Key())
		}
		if !f.IsConst() {
			if got, want := vars.Positive(f), l.Key() <= l.Negate().Key(); got != want {
				t.Fatalf("form %d (%q): Positive %v, named rule %v", i, l.Key(), got, want)
			}
		}
		p := string(f.AppendPacked(nil))
		if prev, ok := packed[p]; ok && prev != l.Key() {
			t.Fatalf("form %d: packed key shared by %q and %q", i, prev, l.Key())
		}
		packed[p] = l.Key()
	}
}

// genWrapLin is genGeneralLin with coefficients and constants drawn by
// drawCoef one time in four, so eliminations multiply and add values that
// wrap around int64.
func genWrapLin(rng *rand.Rand, names []string) Lin {
	l := NewLin()
	for _, v := range names {
		if rng.Intn(2) == 0 {
			c := int64(rng.Intn(7) - 3)
			if rng.Intn(4) == 0 {
				c = drawCoef(rng)
			}
			l.AddVar(v, c)
		}
	}
	l.K = int64(rng.Intn(9) - 4)
	if rng.Intn(4) == 0 {
		l.K = drawCoef(rng)
	}
	return l
}

// denseMatchesNamed decides cons by a fresh LinChecker with every atom true
// and reports the first difference from the named checkFM in Sat, Conflict
// or Truncated. Outside the difference fragment, where Check takes the
// general path, Check must match checkFM too.
func denseMatchesNamed(cons []Lin) error {
	want := checkFM(cons)
	vars := NewVars()
	forms := formsOf(vars, cons)
	all := make([]bool, len(forms))
	for i := range all {
		all[i] = true
	}
	if got := NewLinChecker(vars, forms, nil, 0).Check(all); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("LinChecker.Check %+v, named checkFM %+v", got, want)
	}
	if _, diff := NewDiffChecker(forms); !diff {
		if got := Check(cons); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Check %+v, named checkFM %+v", got, want)
		}
	}
	return nil
}

// TestDenseFMMatchesNamed holds the dense engines to the named oracles
// exactly, not just in verdict: LinChecker.Check and Check to checkFM on
// random general systems, wrapping coefficients included, and the dense
// batch Bellman–Ford over a DiffChecker's edges to the named one on atom
// sets that grow by Extend over a table holding names no atom uses.
func TestDenseFMMatchesNamed(t *testing.T) {
	rng := rand.New(rand.NewSource(2028))
	names := []string{"x", "y", "z", "w"}
	for round := 0; round < 3000; round++ {
		cons := make([]Lin, 1+rng.Intn(7))
		for i := range cons {
			cons[i] = genWrapLin(rng, names[:2+rng.Intn(3)])
		}
		if err := denseMatchesNamed(cons); err != nil {
			t.Fatalf("round %d: %v\nsystem %v", round, err, cons)
		}
	}

	// A persistent LinChecker across assignments: every check that runs an
	// elimination must equal checkFM on the selected polarity forms.
	for round := 0; round < 40; round++ {
		atoms := make([]Lin, 2+rng.Intn(5))
		for i := range atoms {
			atoms[i] = genWrapLin(rng, names[:3])
		}
		var ctr stats.Counters
		vars := NewVars()
		chk := NewLinChecker(vars, formsOf(vars, atoms), &ctr, stats.FMIncremental)
		for probe := 0; probe < 30; probe++ {
			assign := make([]bool, len(atoms))
			for i := range assign {
				assign[i] = rng.Intn(2) == 0
			}
			runs := ctr[stats.FMIncremental].Load()
			got := chk.Check(assign)
			if ctr[stats.FMIncremental].Load() == runs {
				continue // a constant answered it
			}
			if want := checkFM(selectedForms(atoms, assign)); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d probe %d: LinChecker %+v, checkFM %+v\natoms %v assign %v",
					round, probe, got, want, atoms, assign)
			}
		}
	}

	for trial := 0; trial < 300; trial++ {
		vars := NewVars()
		for i := rng.Intn(4); i > 0; i-- {
			vars.ID(fmt.Sprintf("unused%d", i))
		}
		var atoms []Lin
		var d *DiffChecker
		for step := 0; step < 4; step++ {
			more := randomDiffAtoms(rng, 1+rng.Intn(4))
			if d == nil {
				var ok bool
				if d, ok = NewDiffChecker(formsOf(vars, more)); !ok {
					t.Fatalf("trial %d: difference atoms rejected: %v", trial, more)
				}
			} else if !d.Extend(formsOf(vars, more)) {
				t.Fatalf("trial %d: Extend rejected difference atoms: %v", trial, more)
			}
			atoms = append(atoms, more...)
			for round := 0; round < 6; round++ {
				assign := make([]bool, len(atoms))
				for i := range assign {
					assign[i] = rng.Intn(2) == 0
				}
				want := namedCheck(selectedForms(atoms, assign))
				if got := bellmanFord(d, assign); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d step %d: DiffChecker %+v, named %+v\natoms %v assign %v",
						trial, step, got, want, atoms, assign)
				}
			}
		}
		bad := NewLin()
		bad.AddVar("a", 2)
		if d.Extend([]Form{vars.Form(bad)}) || d.Len() != len(atoms) {
			t.Fatalf("trial %d: Extend took 2a ≤ 0 (len %d, want %d)", trial, d.Len(), len(atoms))
		}
	}
}

// FuzzDenseFM decodes a small linear system from the input and requires
// LinChecker and, outside the difference fragment, Check to return exactly
// the named checkFM's Result.
// Each constraint takes one byte of variable mask (four variables) and a
// coefficient byte per variable, then a constant byte; a coefficient or
// constant byte of 0x7f or 0x80 stands for MaxInt64 or MinInt64.
func FuzzDenseFM(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x02, 0x01, 0xfe, 0x00})
	f.Add([]byte{0x03, 0x01, 0xff, 0x01, 0x03, 0xff, 0x01, 0xfd, 0x06, 0x02, 0x03, 0xff})
	f.Add([]byte{0x0f, 0x03, 0xfe, 0x05, 0x07, 0xfc, 0x0f, 0xfd, 0x02, 0xf9, 0x01, 0x05, 0x00})
	f.Add([]byte{0x01, 0x80, 0x00, 0x01, 0x7f, 0x01, 0x03, 0x80, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		names := []string{"a", "b", "c", "d"}
		val := func(b byte) int64 {
			switch b {
			case 0x7f:
				return math.MaxInt64
			case 0x80:
				return math.MinInt64
			}
			return int64(int8(b))
		}
		var cons []Lin
		for len(data) > 0 && len(cons) < 10 {
			mask := data[0]
			data = data[1:]
			l := NewLin()
			for i, v := range names {
				if mask&(1<<i) != 0 && len(data) > 0 {
					l.AddVar(v, val(data[0]))
					data = data[1:]
				}
			}
			if len(data) > 0 {
				l.K = val(data[0])
				data = data[1:]
			}
			cons = append(cons, l)
		}
		if err := denseMatchesNamed(cons); err != nil {
			t.Fatalf("%v\nsystem %v", err, cons)
		}
	})
}
