package smt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/smt"
)

// planGroundAllocs bounds the allocations of re-grounding every plan probe
// of the examples/ ArrayInit problem (LFP, GFP and CFP: 3 003 probes)
// through warmed plans. It is the count recorded with Go 1.24 when
// candidate environments, instance passes and predicate pieces became
// per-plan memos, 32% of the 378 197 the per-probe scaffolding allocated
// before. The race detector's instrumentation allocates too, so a -race
// build has its own recorded count, planGroundAllocsRace (421 509 before).
const (
	planGroundAllocs     = 119288
	planGroundAllocsRace = 141396
)

// TestPlanGroundAllocs re-grounds a warmed plan's probes, grounding only,
// and requires the allocations to stay within planGroundAllocs: a memo that
// stops being reused shows here before it shows in a benchmark.
func TestPlanGroundAllocs(t *testing.T) {
	rec, remove := smt.RecordPlanProbes()
	v := core.New(core.Config{})
	for _, m := range core.Methods {
		if _, err := v.Verify(bench.ArrayInit(), m); err != nil {
			t.Fatal(err)
		}
	}
	remove()
	if rec.Probes() == 0 {
		t.Fatal("ArrayInit grounded no probe through a plan")
	}
	reground := rec.Regrounder()
	allocs := testing.AllocsPerRun(5, reground)
	bound := planGroundAllocs
	if raceDetector {
		bound = planGroundAllocsRace
	}
	t.Logf("%d plan probes re-grounded with %.0f allocations (bound %d)", rec.Probes(), allocs, bound)
	if allocs > float64(bound) {
		t.Fatalf("re-grounding %d warmed plan probes allocated %.0f times, bound %d", rec.Probes(), allocs, bound)
	}
}
