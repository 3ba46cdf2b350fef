package store

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// goldenKeyFormulas cover all 19 node tags of the key encoding, alone and
// nested, including the empty variadic nodes, negative numbers, and names
// whose length-prefix matters (an empty name, a multi-byte one).
func goldenKeyFormulas() []logic.Formula {
	i, j, n := logic.Var{Name: "i"}, logic.Var{Name: "j"}, logic.Var{Name: "n"}
	a, b := logic.ArrVar{Name: "A"}, logic.ArrVar{Name: "B"}
	return []logic.Formula{
		// 0: Atom over Var and IntLit.
		logic.Atom{Op: logic.Le, X: i, Y: logic.IntLit{Val: 0}},
		// 1: Bool true / 2: Bool false.
		logic.Bool{Val: true},
		logic.Bool{Val: false},
		// 3: Not, Add, Sub, Mul with a negative coefficient and literal.
		logic.Not{F: logic.Atom{Op: logic.Lt,
			X: logic.Add{X: i, Y: logic.Mul{C: -3, X: j}},
			Y: logic.Sub{X: n, Y: logic.IntLit{Val: -7}}}},
		// 4: And / Or, empty and non-empty.
		logic.And{Fs: []logic.Formula{
			logic.Or{},
			logic.Or{Fs: []logic.Formula{logic.Atom{Op: logic.Eq, X: i, Y: j}, logic.Bool{Val: true}}},
		}},
		logic.And{},
		// 6: Implies with Select over ArrVar and Store.
		logic.Implies{
			A: logic.Atom{Op: logic.Ge, X: logic.Select{A: a, Idx: i}, Y: logic.IntLit{Val: 1}},
			B: logic.Atom{Op: logic.Neq,
				X: logic.Select{A: logic.Store{A: b, Idx: j, Val: logic.IntLit{Val: 2}}, Idx: i},
				Y: logic.Select{A: a, Idx: n}}},
		// 7: Forall / Exists with several bound names, one of them empty.
		logic.Forall{Vars: []string{"k", ""}, Body: logic.Exists{Vars: []string{"m"},
			Body: logic.Atom{Op: logic.Gt, X: logic.Var{Name: "k"}, Y: logic.Var{Name: "m"}}}},
		// 8: Apply with zero and several args, multi-byte names.
		logic.Atom{Op: logic.Eq,
			X: logic.Apply{F: "next", Args: []logic.Term{logic.Apply{F: "nil"}, logic.Var{Name: "σ"}}},
			Y: logic.Var{Name: ""}},
		// 9: Unknown.
		logic.Unknown{Name: "v1"},
		// 10: AEq over Store chains.
		logic.AEq{L: logic.Store{A: logic.Store{A: a, Idx: i, Val: j}, Idx: n, Val: logic.IntLit{Val: 0}}, R: b},
		// 11: a loop-VC shape mixing most tags.
		logic.Implies{
			A: logic.And{Fs: []logic.Formula{
				logic.Unknown{Name: "inv"},
				logic.Atom{Op: logic.Lt, X: i, Y: n},
				logic.Forall{Vars: []string{"k"}, Body: logic.Implies{
					A: logic.Atom{Op: logic.Lt, X: logic.Var{Name: "k"}, Y: i},
					B: logic.Atom{Op: logic.Eq, X: logic.Select{A: a, Idx: logic.Var{Name: "k"}}, Y: logic.IntLit{Val: 0}}}},
			}},
			B: logic.Not{F: logic.AEq{L: logic.Store{A: a, Idx: i, Val: logic.IntLit{Val: 0}}, R: a}},
		},
	}
}

// goldenKeys are the FormulaKey values of goldenKeyFormulas, computed by
// the original streaming encoder. Keys name verdicts, lemmas and cores on
// disk: they must never change without a StoreParams bump, or stores
// written by earlier builds silently go cold.
var goldenKeys = []string{
	"ea033675f2e445cc4a46bf99daf492b9",
	"5da6167d05be33dbb43693abd0f52913",
	"b2cbef3dfb5e69d859913f60fb88da2b",
	"767e393d4f9418aac2b36ba78486b629",
	"ca77431cf2777d84dbb1a8380b8c560a",
	"a35923dc41a44ce49c44f34a7304c982",
	"e28df1f7dfef84da4039eaf9310dd66b",
	"fe036f3614692974586a0c50c63c2b34",
	"4990d0152317d60adc0dc0137f27a368",
	"b0c1d5db3f696136a7c698e41e89b934",
	"b230464282068461c277d147be1d97b0",
	"9140f19af6954f7b29e9ca1043f2f5e6",
}

func TestFormulaKeyGolden(t *testing.T) {
	fs := goldenKeyFormulas()
	if len(fs) != len(goldenKeys) {
		t.Fatalf("%d formulas, %d golden keys", len(fs), len(goldenKeys))
	}
	for i, f := range fs {
		if got := FormulaKey(f); got != goldenKeys[i] {
			t.Errorf("FormulaKey(#%d %s) = %s, want %s", i, f, got, goldenKeys[i])
		}
	}
}

// vcSizedFormula builds a verification-condition-shaped formula of a few
// hundred nodes: a conjunction of guarded, quantified array facts.
func vcSizedFormula() logic.Formula {
	var fs []logic.Formula
	for c := 0; c < 16; c++ {
		k := logic.Var{Name: fmt.Sprintf("k%d", c)}
		i := logic.Var{Name: fmt.Sprintf("i_%d", c)}
		a := logic.ArrVar{Name: fmt.Sprintf("A_%d", c)}
		fs = append(fs, logic.Forall{Vars: []string{k.Name}, Body: logic.Implies{
			A: logic.And{Fs: []logic.Formula{
				logic.Atom{Op: logic.Le, X: logic.IntLit{Val: 0}, Y: k},
				logic.Atom{Op: logic.Lt, X: k, Y: logic.Add{X: i, Y: logic.Mul{C: 2, X: logic.Var{Name: "n"}}}},
			}},
			B: logic.Atom{Op: logic.Eq,
				X: logic.Select{A: logic.Store{A: a, Idx: i, Val: logic.IntLit{Val: int64(c)}}, Idx: k},
				Y: logic.Sub{X: logic.Select{A: a, Idx: k}, Y: logic.IntLit{Val: 1}}},
		}})
	}
	return logic.Implies{A: logic.And{Fs: fs}, B: logic.Unknown{Name: "post"}}
}

func BenchmarkFormulaKey(b *testing.B) {
	f := vcSizedFormula()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FormulaKey(f)
	}
}
