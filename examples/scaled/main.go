// Scaled: verify two programs whose invariants need non-unit coefficients
// (general linear arithmetic, outside the difference fragment).
//
// ScaledInit is the paper's running example with a stride-2 counter in the
// loop guard: relating the write index i to the bound n requires discovering
// j = 2·i, and the exit reasoning 2i ≥ 2n ⇒ i ≥ n only holds over the
// integers (gcd tightening). DoubleStride proves the exact post-condition
// j = 2·n of a counting loop. Both route every theory check through the
// solver's persistent Fourier–Motzkin engine.
//
// Run with: go run ./examples/scaled
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/spec"
)

func main() {
	for _, p := range []struct {
		name  string
		build func() *spec.Problem
	}{
		{"ScaledInit", bench.ScaledInit},
		{"DoubleStride", bench.DoubleStride},
		{"HalfBound", bench.HalfBound},
	} {
		fmt.Printf("== %s ==\n", p.name)
		v := core.New(core.Config{})
		out, err := v.Verify(p.build(), core.LFP)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(core.FormatOutcome(out))
		s := v.Engine().S
		fmt.Printf("theory checks: %d incremental eliminations, %d from scratch\n\n",
			s.NumFMIncremental(), s.NumFMScratch())
	}
}
