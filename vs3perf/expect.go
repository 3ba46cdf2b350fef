package main

import "repro/internal/core"

// The expected verdicts below are written by hand from the paper's tables
// and the repository's EXPERIMENTS.md, never copied from a verifier run.
// A completed operation whose verdict differs fails the whole run.

// cellKey names one suite cell.
type cellKey struct {
	task, property string
	method         core.Method
}

// engineExpect is the verdict of every bench.DefaultSuite() cell: true when
// an invariant (or, for precondition tasks, at least one maximally-weak
// precondition) must be found.
var engineExpect = map[cellKey]bool{
	// Quick sort (inner) sortedness: paper Table 6 proves it with all three
	// algorithms. EXPERIMENTS.md "Table 6" documents our one gap: GFP's
	// weakest-strengthening frontier never emits the entry-compatible
	// guard pair {0<=k, k<s}, so GFP does not prove it. LFP and CFP do.
	{"Quick Sort (inner)", "sortedness", core.LFP}: true,
	{"Quick Sort (inner)", "sortedness", core.GFP}: false,
	{"Quick Sort (inner)", "sortedness", core.CFP}: true,
	// Quick sort (inner) preservation (the ∀∃ permutation property):
	// EXPERIMENTS.md reproduces all three columns of the preservation table.
	{"Quick Sort (inner)", "preservation", core.LFP}: true,
	{"Quick Sort (inner)", "preservation", core.GFP}: true,
	{"Quick Sort (inner)", "preservation", core.CFP}: true,
	// Table 7 preconditions: Partial Init finds (b) ∀k: n<=k<m ⇒ A[k]=0,
	// Init Synthesis finds both i=0 and i=1 ∧ max=0.
	{"Partial Init", "functional", core.GFP}:   true,
	{"Init Synthesis", "functional", core.GFP}: true,
	// Worst-case precondition of quick sort (inner): EXPERIMENTS.md finds
	// the weaker ∀k: 1<=k ⇒ A[0]<=A[k].
	{"Quick Sort (inner)", "upper-bound", core.GFP}: true,
	// Table 4 list programs: List Delete and List Insert are proved by all
	// three algorithms (only List Init is out of reach).
	{"List Delete", "array/list", core.LFP}: true,
	{"List Delete", "array/list", core.GFP}: true,
	{"List Delete", "array/list", core.CFP}: true,
	{"List Insert", "array/list", core.LFP}: true,
	{"List Insert", "array/list", core.GFP}: true,
	{"List Insert", "array/list", core.CFP}: true,
	// General-LIA variants of §2's examples, run with the iterative
	// algorithms only: Scaled Init needs j = 2i, Double Stride j = 2i, both
	// expressible in their vocabularies.
	{"Scaled Init", "scaled-lia", core.LFP}:   true,
	{"Scaled Init", "scaled-lia", core.GFP}:   true,
	{"Double Stride", "scaled-lia", core.LFP}: true,
	{"Double Stride", "scaled-lia", core.GFP}: true,
}

// corpusExpect is the verdict of every load.DefaultCorpus() item, by name.
// Every item is ArrayInit (§1) or a variant whose vocabulary contains the
// invariant's atoms, so every one must be proved.
var corpusExpect = map[string]bool{
	"array-init-0/lfp": true, "array-init-0/gfp": true, "array-init-0/cfp": true,
	"array-init-1/lfp": true, "array-init-1/gfp": true, "array-init-1/cfp": true,
	"array-init-2/lfp": true, "array-init-2/gfp": true,
	"array-init-3/lfp": true, "array-init-3/gfp": true,
	"array-init-4/lfp": true, "array-init-4/gfp": true,
	"array-init-5/lfp": true, "array-init-5/gfp": true,
	"array-init-6/lfp": true, "array-init-6/gfp": true,
	"array-init-7/lfp": true, "array-init-7/gfp": true,
	// GuardedInit: entry template m <= n makes ∀k: 0<=k<i ⇒ A[k]=0 enough.
	"guarded-init/lfp": true,
	// ScaledInit needs j = 2i; DoubleStride proves j = 2n from j = 2i.
	"scaled-init/lfp":   true,
	"double-stride/lfp": true,
}
