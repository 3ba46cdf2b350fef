//go:build !race

package store

import "testing"

// TestFormulaKeyAllocs pins the warm-path cost: one allocation, the
// returned string; the encoding buffer is pooled and the digest and its hex
// form live on the stack. Not built under -race, whose sync.Pool drops a
// random share of recycled buffers on purpose.
func TestFormulaKeyAllocs(t *testing.T) {
	f := vcSizedFormula()
	FormulaKey(f) // prime the buffer pool
	if n := testing.AllocsPerRun(100, func() { FormulaKey(f) }); n > 1 {
		t.Errorf("FormulaKey allocates %.1f times per call, want at most 1", n)
	}
}
