// Non-unit-coefficient (general-LIA) benchmarks: the §2 worked examples with
// scaled guards and strides. Their invariants need atoms like j = 2·i whose
// verification conditions fall outside the difference fragment, so every
// theory check runs through the Fourier–Motzkin engine — the workload behind
// TestLIABench (`make bench-lia`), comparing the persistent LinChecker
// against from-scratch elimination.

package bench

import (
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/logic"
	"repro/internal/predabs"
	"repro/internal/spec"
	"repro/internal/template"
)

// ScaledInit is ArrayInit (Example 2) with a doubled loop counter: the guard
// compares a stride-2 counter j against 2·n, so relating the write index i to
// the bound n needs the invariant j = 2·i and the division step 2i ≥ 2n ⇒
// i ≥ n that only gcd tightening provides.
func ScaledInit() *spec.Problem {
	prog := lang.MustParse(`
		program ScaledInit(array A, n) {
			i := 0;
			j := 0;
			while loop (j < 2*n) {
				A[i] := 0;
				i := i + 1;
				j := j + 2;
			}
			assert(forall k. (0 <= k && k < n) => A[k] = 0);
		}`)
	tmpl := logic.Conj(
		unk("v0"),
		forallImp([]string{"k"}, unk("v1"), logic.EqF(sel("A", "k"), logic.I(0))),
	)
	return &spec.Problem{
		Prog:      prog,
		Templates: map[string]logic.Formula{"loop": tmpl},
		Q: template.Domain{
			"v0": predabs.ScaledQV(2, []int64{0}, []string{"j", "i", "n"}),
			"v1": predabs.QjV("k", []string{"0", "i", "n"}),
		},
	}
}

// DoubleStride proves the functional post-condition j = 2·n of a loop that
// advances j by two per iteration: the invariant j = 2·i (together with the
// bound i ≤ n) is expressible only with non-unit coefficients.
func DoubleStride() *spec.Problem {
	prog := lang.MustParse(`
		program DoubleStride(n) {
			assume(n >= 0);
			i := 0;
			j := 0;
			while loop (i < n) {
				i := i + 1;
				j := j + 2;
			}
			assert(j = 2*n);
		}`)
	return &spec.Problem{
		Prog:      prog,
		Templates: map[string]logic.Formula{"loop": unk("v0")},
		Q: template.Domain{
			"v0": append(
				predabs.ScaledQV(2, []int64{0}, []string{"j", "i", "n"}),
				predabs.AllPreds(predabs.Vars("i", "n"), []int64{0}, []logic.RelOp{logic.Le, logic.Ge})...,
			),
		},
	}
}

// HalfBound proves an upper bound through a halved comparison: the loop walks
// i up while 2·i stays below n, and the exit bound 2i ≥ n must flow through
// the scaled invariant 2i ≤ n + 2 to bound the final assertion.
func HalfBound() *spec.Problem {
	prog := lang.MustParse(`
		program HalfBound(n) {
			assume(n >= 0);
			i := 0;
			while loop (2*i < n) {
				i := i + 1;
			}
			assert(2*i <= n + 1);
		}`)
	return &spec.Problem{
		Prog:      prog,
		Templates: map[string]logic.Formula{"loop": unk("v0")},
		Q: template.Domain{
			// The inductive invariant is n ≥ 2i − 1: exactly a ScaledQV atom
			// with a constant offset.
			"v0": predabs.ScaledQV(2, []int64{-1, 0, 1}, []string{"i", "n"}),
		},
	}
}

// LIATasks returns the non-unit-coefficient benchmark family. Scaled Init
// and Double Stride run the iterative algorithms only: CFP's SAT encoding
// over their 12-atom scaled vocabularies blows up with or without
// incremental solving (minutes per cell in both arms), so it measures the
// encoding, not the theory engine under comparison.
func LIATasks() []Task {
	iter := []core.Method{core.LFP, core.GFP}
	return []Task{
		{Name: "Scaled Init", Property: "scaled-lia", Build: ScaledInit, Methods: iter},
		{Name: "Double Stride", Property: "scaled-lia", Build: DoubleStride, Methods: iter},
		{Name: "Half Bound", Property: "scaled-lia", Build: HalfBound},
	}
}
