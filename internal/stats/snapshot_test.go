package stats

import (
	"testing"
	"time"
)

// record adds one sample to every histogram but the query latencies, which
// get queries samples, and counts one core eviction and a SAT search of 5
// decisions and 7 propagations in ctr (when non-nil).
func record(c *Collector, ctr *Counters, queries int) {
	for i := 0; i < queries; i++ {
		c.RecordQuery(time.Duration(i) * time.Millisecond)
	}
	c.RecordNegSolutionSize(2)
	c.RecordOptSolutionCount(3)
	c.RecordCandidates(4)
	c.RecordSATSize(10, 5)
	c.RecordCoreSize(1)
	ctr.Add(CoreEvicted, 1)
	ctr.Add(SATDecisions, 5)
	ctr.Add(SATPropagations, 7)
}

func snap(c *Collector, ctr *Counters) Snapshot {
	v := ctr.Load()
	return NewSnapshot(c, &v)
}

func TestSnapshotCounts(t *testing.T) {
	c, ctr := New(), &Counters{}
	record(c, ctr, 3)
	s := snap(c, ctr)
	want := Snapshot{
		Queries:         3,
		NegSolutions:    1,
		OptCalls:        1,
		CandidateSteps:  1,
		SATFormulas:     1,
		UnsatCores:      1,
		CoreEvictions:   1,
		SATDecisions:    5,
		SATPropagations: 7,
	}
	want.QueryBuckets[0] = 2 // 0ms, 1ms
	want.QueryBuckets[1] = 1 // 2ms
	if s != want {
		t.Errorf("Snapshot() = %+v, want %+v", s, want)
	}
	if snap(&Collector{}, &Counters{}) != (Snapshot{}) {
		t.Error("empty collector snapshot not zero")
	}
	if snap(nil, &Counters{}) != (Snapshot{}) {
		t.Error("nil collector snapshot not zero")
	}
}

// TestSnapshotAddSub checks the two laws the server relies on: Sub of a
// later snapshot against an earlier one of the same session yields exactly
// the activity in between (request-scoped deltas), and Add folds deltas into
// a fleet aggregate.
func TestSnapshotAddSub(t *testing.T) {
	c, ctr := New(), &Counters{}
	record(c, ctr, 2)
	before := snap(c, ctr)
	record(c, ctr, 5)
	delta := snap(c, ctr).Sub(before)
	if delta.Queries != 5 {
		t.Errorf("delta queries = %d, want 5", delta.Queries)
	}
	if delta.NegSolutions != 1 || delta.CoreEvictions != 1 || delta.SATDecisions != 5 {
		t.Errorf("delta = %+v, want one of each non-query record", delta)
	}
	if got := before.Add(delta); got != snap(c, ctr) {
		t.Errorf("before + delta = %+v, want %+v", got, snap(c, ctr))
	}
	if got := snap(c, ctr).Sub(snap(c, ctr)); got != (Snapshot{}) {
		t.Errorf("s - s = %+v, want zero", got)
	}
}

func TestMergeFoldsCollectors(t *testing.T) {
	agg := New()
	record(agg, nil, 1)
	req := New()
	record(req, nil, 4)
	agg.Merge(req)
	got := agg.Snapshot()
	if got.Queries != 5 {
		t.Errorf("merged queries = %d, want 5", got.Queries)
	}
	if got.NegSolutions != 2 || got.SATFormulas != 2 || got.UnsatCores != 2 {
		t.Errorf("merged snapshot = %+v, want two of each record", got)
	}
	// The source is unchanged, and merging nil is a no-op.
	if req.Snapshot().Queries != 4 {
		t.Error("Merge mutated its source")
	}
	agg.Merge(nil)
	var nilc *Collector
	nilc.Merge(req)
	if agg.Snapshot().Queries != 5 {
		t.Error("Merge(nil) changed the aggregate")
	}
}

// TestSnapshotCostFlat: Snapshot reads fixed-size histograms, so neither its
// allocations nor its cost grow with the number of recorded samples (a
// serving session's collector snapshots on every request, for its whole
// lifetime).
func TestSnapshotCostFlat(t *testing.T) {
	small, large := New(), New()
	record(small, nil, 10)
	record(large, nil, 200_000)
	for _, c := range []*Collector{small, large} {
		if a := testing.AllocsPerRun(100, func() { c.Snapshot() }); a != 0 {
			t.Errorf("Snapshot allocates %.0f times per call", a)
		}
	}
	cost := func(c *Collector) time.Duration {
		best := time.Duration(1 << 62)
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			for i := 0; i < 2000; i++ {
				c.Snapshot()
			}
			best = min(best, time.Since(t0))
		}
		return best
	}
	// Re-bucketing 200 000 raw samples per call would be ~10⁴x slower; a
	// generous 4x absorbs scheduling noise on a shared host.
	if s, l := cost(small), cost(large); l > 4*s+time.Millisecond {
		t.Errorf("Snapshot with 200000 samples took %v per 2000 calls, %v with 10", l, s)
	}
}
