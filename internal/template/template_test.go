package template

import (
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/ssa"
)

func unk(n string) logic.Formula { return logic.Unknown{Name: n} }

func TestPolaritiesExample1(t *testing.T) {
	// The paper's Example 1: (v1 ∧ (∀j: v2 ⇒ b1) ∧ (∀j: v3 ⇒ b2)) ⇒
	// (v4 ∧ (∀j: v5 ⇒ b3)) with U+ = {v2,v3,v4} and U− = {v1,v5}.
	b := logic.LeF(logic.V("x"), logic.V("y"))
	f := logic.Imp(
		logic.Conj(
			unk("v1"),
			logic.All([]string{"j"}, logic.Imp(unk("v2"), b)),
			logic.All([]string{"j"}, logic.Imp(unk("v3"), b)),
		),
		logic.Conj(
			unk("v4"),
			logic.All([]string{"j"}, logic.Imp(unk("v5"), b)),
		),
	)
	pol, err := Polarities(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Polarity{
		"v1": Negative, "v2": Positive, "v3": Positive,
		"v4": Positive, "v5": Negative,
	}
	for u, p := range want {
		if pol[u] != p {
			t.Errorf("%s: got %v, want %v", u, pol[u], p)
		}
	}
	pos, neg := Split(pol)
	if len(pos) != 3 || len(neg) != 2 {
		t.Errorf("split: %v %v", pos, neg)
	}
}

func TestPolaritiesNegation(t *testing.T) {
	pol, err := Polarities(logic.Neg(logic.Conj(unk("a"), logic.Neg(unk("b")))))
	if err != nil {
		t.Fatal(err)
	}
	if pol["a"] != Negative || pol["b"] != Positive {
		t.Errorf("pol = %v", pol)
	}
}

func TestPolaritiesConflict(t *testing.T) {
	// Same unknown on both sides of an implication has conflicting polarity.
	f := logic.Imp(unk("v"), unk("v"))
	if _, err := Polarities(f); err == nil {
		t.Error("conflicting polarity should error")
	}
	// Same unknown twice with consistent polarity is accepted (used by the
	// iterative algorithms' θ constraint).
	g := logic.Conj(unk("v"), unk("v"))
	if _, err := Polarities(g); err != nil {
		t.Errorf("consistent duplicate should be fine: %v", err)
	}
}

func TestPredSetBasics(t *testing.T) {
	a := logic.LtF(logic.V("x"), logic.V("y"))
	b := logic.LeF(logic.V("y"), logic.V("z"))
	s := NewPredSet(a, b, a) // deduped
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
	if !s.Contains(a) || !s.Contains(b) {
		t.Error("containment")
	}
	empty := NewPredSet()
	if !empty.SubsetOf(s) || s.SubsetOf(empty) {
		t.Error("subset relations with empty set")
	}
	if !logic.FormulaEq(empty.Formula(), logic.True) {
		t.Errorf("empty formula = %v", empty.Formula())
	}
	u := s.Union(NewPredSet(a))
	if u.Len() != 2 {
		t.Errorf("union should dedupe: %v", u)
	}
	if s.Add(a).Len() != 2 || s.Add(logic.EqF(logic.V("q"), logic.I(0))).Len() != 3 {
		t.Error("Add behavior")
	}
}

func TestPredSetKeyOrderIndependent(t *testing.T) {
	f := func(perm [3]uint8) bool {
		ps := []logic.Formula{
			logic.LtF(logic.V("a"), logic.I(0)),
			logic.LeF(logic.V("b"), logic.I(1)),
			logic.GtF(logic.V("c"), logic.I(2)),
		}
		i, j := int(perm[0])%3, int(perm[1])%3
		ps[i], ps[j] = ps[j], ps[i]
		return NewPredSet(ps...).Key() == NewPredSet(ps[2], ps[1], ps[0]).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPredSetKeyedAgrees checks that the keyed operations are the same set
// operations as their rendering counterparts: random add sequences built
// with Add and with AddKeyed yield identical members, keys and identity, and
// ContainsKey answers exactly as Contains for members and non-members.
func TestPredSetKeyedAgrees(t *testing.T) {
	universe := []logic.Formula{
		logic.LtF(logic.V("i"), logic.V("n")),
		logic.LeF(logic.I(0), logic.V("i")),
		logic.EqF(logic.Sel(logic.AV("A"), logic.V("j")), logic.I(0)),
		logic.GeF(logic.V("j"), logic.Plus(logic.V("i"), logic.I(1))),
		logic.NeqF(logic.V("x"), logic.Times(2, logic.V("y"))),
		logic.Neg(logic.LtF(logic.V("i"), logic.V("n"))),
	}
	keys := make([]string, len(universe))
	for i, p := range universe {
		keys[i] = p.String()
	}
	f := func(picks []uint8) bool {
		plain, keyed := NewPredSet(), NewPredSet()
		for _, b := range picks {
			i := int(b) % len(universe)
			plain = plain.Add(universe[i])
			keyed = keyed.AddKeyed(universe[i], keys[i])
		}
		if plain.Key() != keyed.Key() || plain.Len() != keyed.Len() {
			return false
		}
		for i, p := range plain.Preds() {
			if !logic.FormulaEq(keyed.Preds()[i], p) || keyed.Keys()[i] != p.String() {
				return false
			}
		}
		for i, p := range universe {
			if plain.Contains(p) != keyed.ContainsKey(keys[i]) || keyed.Contains(p) != plain.ContainsKey(keys[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolutionFillAndRestrict(t *testing.T) {
	f := logic.Conj(unk("a"), logic.All([]string{"k"}, logic.Imp(unk("b"), logic.EqF(logic.V("k"), logic.I(0)))))
	sol := Solution{
		"a": NewPredSet(logic.LtF(logic.V("x"), logic.V("n"))),
		"b": NewPredSet(),
	}
	g := sol.Fill(f)
	if len(logic.Unknowns(g)) != 0 {
		t.Errorf("fill left unknowns: %v", g)
	}
	r := sol.Restrict([]string{"a"})
	if len(r) != 1 {
		t.Errorf("restrict = %v", r)
	}
	rc := sol.RestrictComplement([]string{"a"})
	if len(rc) != 1 || rc["b"].Len() != 0 {
		t.Errorf("restrict complement = %v", rc)
	}
}

func TestSolutionMergeUnions(t *testing.T) {
	a := logic.LtF(logic.V("x"), logic.I(0))
	b := logic.GtF(logic.V("x"), logic.I(0))
	s1 := Solution{"v": NewPredSet(a)}
	s2 := Solution{"v": NewPredSet(b), "w": NewPredSet()}
	m := s1.Merge(s2)
	if m["v"].Len() != 2 {
		t.Errorf("merge should union shared entries: %v", m)
	}
	if _, ok := m["w"]; !ok {
		t.Error("merge should keep unshared entries")
	}
	// Merge must not mutate the receivers.
	if s1["v"].Len() != 1 || s2["v"].Len() != 1 {
		t.Error("merge mutated an input")
	}
}

func TestSolutionRename(t *testing.T) {
	r := ssa.NewRenaming()
	r.Int["i"] = "i#1"
	sol := Solution{"v": NewPredSet(logic.LtF(logic.V("k"), logic.V("i")))}
	renamed := sol.Rename(r)
	if renamed["v"].Preds()[0].String() != "k < i#1" {
		t.Errorf("renamed = %v", renamed)
	}
	back := renamed.Rename(r.Inverse())
	if back.Key() != sol.Key() {
		t.Errorf("inverse rename should round-trip: %v vs %v", back, sol)
	}
}

func TestDomainRename(t *testing.T) {
	r := ssa.NewRenaming()
	r.Arr["A"] = "A#2"
	d := Domain{"v": []logic.Formula{logic.EqF(logic.Sel(logic.AV("A"), logic.V("k")), logic.I(0))}}
	rd := d.Rename(r)
	if rd["v"][0].String() != "A#2[k] = 0" {
		t.Errorf("domain rename = %v", rd["v"][0])
	}
	// Identity renaming returns the domain unchanged.
	if got := d.Rename(ssa.NewRenaming()); got["v"][0] != d["v"][0] {
		t.Error("identity rename should be a no-op")
	}
}

func TestRenameUnknowns(t *testing.T) {
	f := logic.Conj(unk("v"), unk("w"))
	g := RenameUnknowns(f, map[string]string{"v": "v@post"})
	us := logic.Unknowns(g)
	if len(us) != 2 || us[0] != "v@post" || us[1] != "w" {
		t.Errorf("renamed unknowns = %v", us)
	}
}
