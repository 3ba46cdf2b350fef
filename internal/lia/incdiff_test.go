package lia

import (
	"fmt"
	"math/rand"
	"testing"
)

// pushPop drives one DiffChecker over atoms through a sequence of pushes and
// pops and holds it to the batch oracle. A push of atom i in polarity v
// (skipped when i is already asserted) must succeed exactly when the named
// Bellman–Ford finds the asserted atoms plus (i, v) feasible; a conflict
// must be sorted, contain i, name only asserted atoms besides i, and be
// infeasible in the asserted polarities. A pop takes the stack back to a
// shorter length. The checker's stack must track the model stack.
type pushPop struct {
	atoms             []Lin
	d                 *DiffChecker
	stack             []int        // asserted atoms, in push order
	val               map[int]bool // polarity of each asserted atom
	pushes, conflicts int
}

func newPushPop(atoms []Lin) (*pushPop, error) {
	d, ok := NewDiffChecker(formsOf(NewVars(), atoms))
	if !ok {
		return nil, fmt.Errorf("difference atoms rejected: %v", atoms)
	}
	return &pushPop{atoms: atoms, d: d, val: map[int]bool{}}, nil
}

func (p *pushPop) selected(idxs []int, extra int, extraVal bool) []Lin {
	cons := make([]Lin, 0, len(idxs)+1)
	pick := func(i int, v bool) {
		if v {
			cons = append(cons, p.atoms[i])
		} else {
			cons = append(cons, p.atoms[i].Negate())
		}
	}
	for _, i := range idxs {
		pick(i, p.val[i])
	}
	if extra >= 0 {
		pick(extra, extraVal)
	}
	return cons
}

func (p *pushPop) push(i int, v bool) error {
	if _, on := p.val[i]; on {
		return nil
	}
	p.pushes++
	want := namedCheck(p.selected(p.stack, i, v)).Sat
	conflict := p.d.Push(i, v)
	if (conflict == nil) != want {
		return fmt.Errorf("push %d=%v over %v: conflict %v, oracle sat=%v", i, v, p.stack, conflict, want)
	}
	if conflict == nil {
		p.stack = append(p.stack, i)
		p.val[i] = v
	} else {
		p.conflicts++
		hasNew := false
		var rest []int
		for k, ci := range conflict {
			if k > 0 && conflict[k-1] >= ci {
				return fmt.Errorf("push %d=%v: conflict %v not sorted and distinct", i, v, conflict)
			}
			if ci == i {
				hasNew = true
				continue
			}
			if _, on := p.val[ci]; !on {
				return fmt.Errorf("push %d=%v: conflict %v names unasserted atom %d", i, v, conflict, ci)
			}
			rest = append(rest, ci)
		}
		if !hasNew {
			return fmt.Errorf("push %d=%v: conflict %v lacks the new atom", i, v, conflict)
		}
		if namedCheck(p.selected(rest, i, v)).Sat {
			return fmt.Errorf("push %d=%v: conflict %v is feasible", i, v, conflict)
		}
	}
	if len(p.d.stack) != len(p.stack) {
		return fmt.Errorf("after push %d=%v: %d atoms asserted, want %d", i, v, len(p.d.stack), len(p.stack))
	}
	return nil
}

func (p *pushPop) pop(n int) {
	for _, i := range p.stack[n:] {
		delete(p.val, i)
	}
	p.stack = p.stack[:n]
	p.d.Pop(n)
}

// TestIncDiffMatchesBellmanFord drives random push/pop sequences over random
// difference atom sets, constant atoms included, and holds every push to the
// batch oracle (see pushPop). It also holds the batch Check, which pushes a
// whole assignment on top of the asserted atoms and takes it back, to the
// dense batch Bellman–Ford in verdict on a fresh checker, and checks that it
// leaves the stack as it found it.
func TestIncDiffMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(2032))
	pushes, conflicts := 0, 0
	for trial := 0; trial < 2000; trial++ {
		atoms := randomDiffAtoms(rng, 2+rng.Intn(12))
		p, err := newPushPop(atoms)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 60; op++ {
			if len(p.stack) > 0 && rng.Intn(4) == 0 {
				p.pop(rng.Intn(len(p.stack) + 1))
				continue
			}
			if err := p.push(rng.Intn(len(atoms)), rng.Intn(2) == 0); err != nil {
				t.Fatalf("trial %d op %d: %v\natoms %v", trial, op, err, atoms)
			}
		}
		pushes += p.pushes
		conflicts += p.conflicts

		assign := make([]bool, len(atoms))
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		fresh, _ := NewDiffChecker(formsOf(NewVars(), atoms))
		got, want := fresh.Check(assign), bellmanFord(fresh, assign)
		if got.Sat != want.Sat {
			t.Fatalf("trial %d: Check %+v, Bellman–Ford %+v\natoms %v assign %v", trial, got, want, atoms, assign)
		}
		n := len(p.d.stack)
		p.d.Check(assign)
		if len(p.d.stack) != n {
			t.Fatalf("trial %d: Check left %d atoms asserted, want %d", trial, len(p.d.stack), n)
		}
	}
	t.Logf("%d pushes, %d conflicts", pushes, conflicts)
	if conflicts == 0 || conflicts == pushes {
		t.Fatal("the sweep does not exercise both verdicts")
	}
}

// FuzzDiffPushPop decodes a small difference atom set and a push/pop
// sequence from the input and holds every push to the batch oracle (see
// pushPop). The first byte gives the atom count (1–8); each atom takes a
// shape byte (its low two bits pick x − y, x, −x or a constant; the next
// bits the variables among four) and a constant byte. Each further byte is
// an operation: high bit set pops to (b & 0x7f) mod (depth + 1) atoms,
// otherwise it pushes atom (b >> 1) mod n in polarity b & 1.
func FuzzDiffPushPop(f *testing.F) {
	f.Add([]byte{0x03, 0x04, 0xff, 0x09, 0xff, 0x02, 0x03, 0x00, 0x02, 0x04})
	f.Add([]byte{0x04, 0x00, 0x00, 0x03, 0x01, 0x24, 0x02, 0x18, 0xfd, 0x01, 0x03, 0x05, 0x80, 0x06, 0x07})
	f.Add([]byte{0x02, 0x01, 0x7f, 0x02, 0x80, 0x00, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		names := []string{"a", "b", "c", "d"}
		n := 1 + int(data[0])%8
		data = data[1:]
		var atoms []Lin
		for len(atoms) < n && len(data) >= 2 {
			shape, k := data[0], int64(int8(data[1]))
			data = data[2:]
			x, y := names[(shape>>2)&3], names[(shape>>4)&3]
			l := NewLin()
			switch shape & 3 {
			case 0:
				if x == y {
					y = names[((shape>>4)+1)&3]
				}
				l.AddVar(x, 1)
				l.AddVar(y, -1)
			case 1:
				l.AddVar(x, 1)
			case 2:
				l.AddVar(x, -1)
			}
			l.K = k
			atoms = append(atoms, l)
		}
		if len(atoms) == 0 {
			return
		}
		p, err := newPushPop(atoms)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			if b&0x80 != 0 {
				p.pop(int(b&0x7f) % (len(p.stack) + 1))
				continue
			}
			if err := p.push(int(b>>1)%len(atoms), b&1 == 1); err != nil {
				t.Fatalf("%v\natoms %v", err, atoms)
			}
		}
	})
}
