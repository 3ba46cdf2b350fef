package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.RecordQuery(time.Millisecond)
	c.RecordNegSolutionSize(1)
	c.RecordOptSolutionCount(2)
	c.RecordCandidates(3)
	c.RecordSATSize(4, 5)
	// No panic = pass.
}

func TestRecordAndRead(t *testing.T) {
	c := New()
	c.RecordQuery(2 * time.Millisecond)
	c.RecordQuery(20 * time.Millisecond)
	c.RecordNegSolutionSize(1)
	c.RecordNegSolutionSize(3)
	c.RecordOptSolutionCount(1)
	c.RecordCandidates(8)
	c.RecordSATSize(100, 40)
	if q := c.Queries(); q.Count != 2 || q.Sum != 22*time.Millisecond || q.Max != 20*time.Millisecond {
		t.Errorf("queries = %+v", q)
	}
	if got := c.NegSolutionSizes(); got.Count != 2 || got.Sum != 4 || got.Max != 3 {
		t.Errorf("neg sizes = count %d sum %d max %d", got.Count, got.Sum, got.Max)
	}
	clauses, vars := c.SATSizes()
	if clauses.Max != 100 || vars.Max != 40 || clauses.Count != 1 {
		t.Errorf("sat sizes = %d %d", clauses.Max, vars.Max)
	}
}

func TestDurationHistogram(t *testing.T) {
	ds := []time.Duration{
		500 * time.Microsecond,
		5 * time.Millisecond,
		50 * time.Millisecond,
		500 * time.Millisecond,
		5 * time.Second,
	}
	var h DurHist
	for _, d := range ds {
		h.Record(d)
	}
	for i, n := range h.Buckets {
		if n != 1 {
			t.Errorf("bucket %d (%s) = %d, want 1", i, QueryBucketLabels[i], n)
		}
	}
	if h.Count != 5 || h.Max != 5*time.Second {
		t.Errorf("count %d max %v, want 5 and 5s", h.Count, h.Max)
	}
}

func hist(samples ...int) *IntHist {
	h := &IntHist{}
	for _, v := range samples {
		h.Record(v)
	}
	return h
}

func TestHistogram(t *testing.T) {
	h := hist(0, 1, 1, 2, 9).Cuts([]int{0, 1, 2})
	if len(h) != 4 || h["<=0"] != 1 || h["<=1"] != 2 || h["<=2"] != 1 || h[">2"] != 1 {
		t.Errorf("histogram = %v", h)
	}
	// Only non-empty buckets appear, and overflow samples count past the
	// last cut.
	h = hist(3, histExact, 10*histExact).Cuts([]int{0, 1})
	if len(h) != 1 || h[">1"] != 3 {
		t.Errorf("histogram = %v", h)
	}
}

func TestMedianMax(t *testing.T) {
	if h := hist(); h.Median() != 0 || h.Max != 0 {
		t.Error("empty stats")
	}
	if m := hist(5, 1, 3).Median(); m != 3 {
		t.Errorf("median = %d", m)
	}
	// Even counts take the upper median, as sorting and indexing len/2 does.
	if m := hist(4, 1, 3, 2).Median(); m != 3 {
		t.Errorf("upper median = %d", m)
	}
	if hist(5, 1, 3).Max != 5 {
		t.Error("max")
	}
	if h := hist(1, 2*histExact, 3*histExact); h.Median() != histExact || h.Max != 3*histExact {
		t.Errorf("overflow median %d max %d", h.Median(), h.Max)
	}
}

func TestWriteSummary(t *testing.T) {
	c := New()
	c.RecordQuery(time.Millisecond)
	c.RecordCandidates(4)
	var b strings.Builder
	c.WriteSummary(&b)
	out := b.String()
	for _, want := range []string{"SMT queries: 1", "candidate"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.RecordQuery(time.Microsecond)
				c.RecordCandidates(j)
			}
		}()
	}
	wg.Wait()
	if got := c.Queries().Count; got != 800 {
		t.Errorf("queries = %d, want 800", got)
	}
}
