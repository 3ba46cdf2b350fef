package stats

import (
	"testing"
	"time"
)

func record(c *Collector, queries int) {
	for i := 0; i < queries; i++ {
		c.RecordQuery(time.Duration(i) * time.Millisecond)
	}
	c.RecordNegSolutionSize(2)
	c.RecordOptSolutionCount(3)
	c.RecordCandidates(4)
	c.RecordSATSize(10, 5)
	c.RecordCoreSize(1)
	c.RecordCoreEviction()
	c.RecordSATWork(5, 7)
}

func TestSnapshotCounts(t *testing.T) {
	c := New()
	record(c, 3)
	s := c.Snapshot()
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
	if (&Collector{}).Snapshot() != (Snapshot{}) {
		t.Error("empty collector snapshot not zero")
	}
	var nilc *Collector
	if nilc.Snapshot() != (Snapshot{}) {
		t.Error("nil collector snapshot not zero")
	}
}

// TestSnapshotAddSub checks the two laws the server relies on: Sub of a
// later snapshot against an earlier one on the same collector yields exactly
// the activity in between (request-scoped deltas), and Add folds deltas into
// a fleet aggregate.
func TestSnapshotAddSub(t *testing.T) {
	c := New()
	record(c, 2)
	before := c.Snapshot()
	record(c, 5)
	delta := c.Snapshot().Sub(before)
	if delta.Queries != 5 {
		t.Errorf("delta queries = %d, want 5", delta.Queries)
	}
	if delta.NegSolutions != 1 || delta.CoreEvictions != 1 {
		t.Errorf("delta = %+v, want one of each non-query record", delta)
	}
	if got := before.Add(delta); got != c.Snapshot() {
		t.Errorf("before + delta = %+v, want %+v", got, c.Snapshot())
	}
	if got := c.Snapshot().Sub(c.Snapshot()); got != (Snapshot{}) {
		t.Errorf("s - s = %+v, want zero", got)
	}
}

func TestMergeFoldsCollectors(t *testing.T) {
	agg := New()
	record(agg, 1)
	req := New()
	record(req, 4)
	agg.Merge(req)
	got := agg.Snapshot()
	if got.Queries != 5 {
		t.Errorf("merged queries = %d, want 5", got.Queries)
	}
	if got.NegSolutions != 2 || got.SATFormulas != 2 || got.CoreEvictions != 2 || got.SATDecisions != 10 || got.SATPropagations != 14 {
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
	record(small, 10)
	record(large, 200_000)
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
