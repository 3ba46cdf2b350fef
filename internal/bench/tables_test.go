package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestTable1Static(t *testing.T) {
	var b strings.Builder
	Table1(&b)
	out := b.String()
	for _, want := range []string{"Merge Sort", "forall y exists x", "A0[y] = A[x]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("table run skipped in -short mode")
	}
	// A tight per-run budget: this test checks the table renders and the
	// collector populates, not which cells succeed.
	c := stats.New()
	r := &Runner{Timeout: 8 * time.Second, Stats: c}
	var b strings.Builder
	Table4(&b, r)
	out := b.String()
	for _, want := range []string{"Consumer Producer", "Partition Array", "List Init", "LFP", "GFP", "CFP"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
	// The runs must have populated the collector for Figures 4 and 6-9.
	if c.Queries().Count == 0 {
		t.Error("no SMT queries recorded")
	}
	var f strings.Builder
	Figure4(&f, c)
	if !strings.Contains(f.String(), "<=10ms") {
		t.Errorf("Figure 4 output: %s", f.String())
	}
	Figure6(&f, c)
	Figure7(&f, c)
	Figure8(&f, c)
	Figure9(&f, c)
}

func TestWithJunkPredicates(t *testing.T) {
	base := ArrayInit()
	juiced := WithJunkPredicates(ArrayInit, 7)()
	for u := range base.Q {
		if len(juiced.Q[u]) != len(base.Q[u])+7 {
			t.Errorf("unknown %s: %d preds, want %d", u, len(juiced.Q[u]), len(base.Q[u])+7)
		}
	}
	// The junked problem must still verify.
	r := &Runner{Timeout: 60 * time.Second}
	m := r.runOne(Task{Name: "junked", Build: WithJunkPredicates(ArrayInit, 5)}, core.GFP)
	if m.Err != nil || !m.Proved {
		t.Errorf("junked ArrayInit: err=%v proved=%v", m.Err, m.Proved)
	}
}

func TestJunkPredsDistinct(t *testing.T) {
	ps := junkPreds(40)
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.String()] {
			t.Fatalf("duplicate junk predicate %v", p)
		}
		seen[p.String()] = true
	}
}

func TestRunnerTimeout(t *testing.T) {
	r := &Runner{Timeout: 1 * time.Millisecond}
	m := r.runOne(Task{Name: "slow", Build: MergeSortInnerSorted}, core.CFP)
	if m.Err == nil {
		t.Skip("finished within 1ms (!?)")
	}
	if !strings.Contains(m.Err.Error(), "timeout") {
		t.Errorf("err = %v", m.Err)
	}
}

func TestMeasurementFormatting(t *testing.T) {
	if got := fmtDur(Measurement{Proved: true, Duration: 1500 * time.Millisecond}); got != "1.50s" {
		t.Errorf("fmtDur proved = %q", got)
	}
	if got := fmtDur(Measurement{Proved: false}); got != "fail" {
		t.Errorf("fmtDur fail = %q", got)
	}
	if got := fmtDur(Measurement{Err: errTimeout{}}); got != "timeout" {
		t.Errorf("fmtDur timeout = %q", got)
	}
}

type errTimeout struct{}

func (errTimeout) Error() string { return "timeout" }

func TestTaskListsComplete(t *testing.T) {
	if got := len(ArrayListTasks()); got != 5 {
		t.Errorf("Table 4 has %d tasks, want 5", got)
	}
	if got := len(SortednessTasks()); got != 6 {
		t.Errorf("sortedness has %d tasks, want 6", got)
	}
	if got := len(PreservationTasks()); got != 6 {
		t.Errorf("preservation has %d tasks, want 6", got)
	}
	if got := len(WorstCaseTasks()); got != 4 {
		t.Errorf("worst-case has %d tasks, want 4", got)
	}
	if got := len(FunctionalTasks()); got != 4 {
		t.Errorf("functional has %d tasks, want 4", got)
	}
	// Every task must build a problem that validates.
	all := append(append(append(append(ArrayListTasks(), SortednessTasks()...),
		PreservationTasks()...), WorstCaseTasks()...), FunctionalTasks()...)
	for _, task := range all {
		p := task.Build()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", task.Name, err)
		}
	}
}

// TestFiguresFromHistograms pins Figures 4 and 6–9 rendered from a fixed
// sample set. The expected text is what the collector printed when it kept
// every raw sample, so rendering from fixed-bin histograms must reproduce it
// byte for byte (including the medians of Figures 8 and 9).
func TestFiguresFromHistograms(t *testing.T) {
	c := stats.New()
	for i := 0; i < 40; i++ {
		c.RecordQuery(time.Duration(i*i*i) * 37 * time.Microsecond)
		c.RecordNegSolutionSize(i % 7)
		c.RecordOptSolutionCount((i * 5) % 9)
		c.RecordCandidates((i * i) % 41)
		if i%3 == 0 {
			c.RecordSATSize(60+(i*37)%450, 30+(i*23)%200)
		}
	}
	var b strings.Builder
	Figure4(&b, c)
	Figure6(&b, c)
	Figure7(&b, c)
	Figure8(&b, c)
	Figure9(&b, c)
	const want = `Figure 4: SMT query latency histogram
  <=1ms    4
  <=10ms   3
  <=100ms  7
  <=1s     17
  >1s      9
Figure 6: predicates per OptimalNegativeSolutions solution
  <=0  6
  <=1  6
  <=2  6
  <=3  6
  <=4  6
  >4   10
Figure 7: solutions per OptimalSolutions call
  <=0  5
  <=1  5
  <=2  4
  <=3  4
  <=4  4
  <=5  5
  <=6  5
  >6   8
Figure 8: iterative candidate-set sizes per step
  steps observed: 40, median candidates: 21, max: 40
  <=1   2
  <=2   2
  <=4   2
  <=8   4
  <=16  6
  <=32  14
  >32   10
Figure 9: CFP SAT formula sizes
  instances: 14, median clauses: 282, max clauses: 504, median vars: 113
`
	if got := b.String(); got != want {
		t.Errorf("figures changed:\n%s\nwant:\n%s", got, want)
	}
}
