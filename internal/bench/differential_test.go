package bench

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/spec"
	"repro/internal/template"
)

// exampleCells lists every problem the examples/ programs exercise, with the
// method choices the examples themselves make (core.Methods == nil means
// precondition inference).
var exampleCells = []struct {
	name    string
	build   func() *spec.Problem
	methods []core.Method
}{
	{"ArrayInit (quickstart)", ArrayInit, core.Methods},
	{"Quick Sort (inner) sortedness", QuickSortInnerSorted, []core.Method{core.LFP}},
	{"Quick Sort (inner) preservation", QuickSortInnerPreserves, []core.Method{core.LFP, core.CFP}},
	{"Bubble Sort (flag) sortedness", BubbleSortFlagSorted, []core.Method{core.GFP}},
	{"Bubble Sort (flag) preservation", BubbleSortFlagPreserves, core.Methods},
	{"Partial Init precondition", PartialInit, nil},
	{"Init Synthesis precondition", InitSynthesis, nil},
	{"Quick Sort (inner) worst case", QuickSortInnerWorstCase, nil},
}

// crossChecker installs an optimal.Options.CrossCheck hook asserting that the
// map-solver-guided enumeration and the reference BFS return the same solution
// sets (as sets) on every group search the run performs. The hook can fire
// from parallel workers, so failures are collected under a lock.
type crossChecker struct {
	mu     sync.Mutex
	groups int
	errs   []string
}

func (cc *crossChecker) hook(phi logic.Formula, mapSols, bfsSols []template.Solution) {
	mk := map[string]bool{}
	for _, s := range mapSols {
		mk[s.Key()] = true
	}
	bk := map[string]bool{}
	for _, s := range bfsSols {
		bk[s.Key()] = true
	}
	same := len(mk) == len(bk)
	if same {
		for k := range mk {
			if !bk[k] {
				same = false
				break
			}
		}
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.groups++
	if !same && len(cc.errs) < 3 {
		cc.errs = append(cc.errs,
			"map/bfs solution sets differ on "+phi.String())
	}
}

// TestMapVsBFSExamples runs every examples/ problem with the CrossCheck hook
// enabled, so every OptimalNegativeSolutions group search performed anywhere
// in the run (fixpoint repairs, ψ_Prog encoding, precondition enumeration)
// is checked map-vs-BFS for identical solution sets. This is the
// `make test-differential` guarantee behind keeping the reference BFS.
func TestMapVsBFSExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples differential sweep skipped in -short mode (run via make test-differential)")
	}
	for _, cell := range exampleCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			cc := &crossChecker{}
			cfg := core.Config{}
			cfg.Optimal.CrossCheck = cc.hook
			v := core.New(cfg)
			if cell.methods == nil {
				if _, _, err := v.InferPreconditions(cell.build()); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, m := range cell.methods {
					if _, err := v.Verify(cell.build(), m); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, e := range cc.errs {
				t.Error(e)
			}
			if cc.groups == 0 {
				t.Error("CrossCheck hook never fired; differential sweep vacuous")
			}
			t.Logf("%d group searches cross-checked", cc.groups)
		})
	}
}
