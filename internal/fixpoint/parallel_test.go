package fixpoint

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/template"
)

// atProcs runs f with runtime.GOMAXPROCS set to n, restoring the old value
// afterwards. The engine's fan-outs (path scoring, fresh-candidate scoring,
// OptimalSolutions seeding) size themselves from GOMAXPROCS.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// solutionsKey canonically renders a result's solution set for comparison
// across runs (the All list is already deduped; sort by Key to ignore
// discovery order).
func solutionsKey(res Result) string {
	keys := make([]string, 0, len(res.All)+1)
	if res.Solution != nil {
		keys = append(keys, "first:"+res.Solution.Key())
	}
	all := append([]template.Solution(nil), res.All...)
	for _, s := range all {
		keys = append(keys, s.Key())
	}
	out := ""
	for _, k := range sortedStrings(keys) {
		out += k + "\n"
	}
	return out
}

func sortedStrings(ss []string) []string {
	out := append([]string(nil), ss...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestParallelMatchesSequential checks that concurrent scoring proves the
// same problems as a single-threaded run, and that every solution it
// returns is a genuine invariant.
func TestParallelMatchesSequential(t *testing.T) {
	for _, procs := range []int{2, 4, 8} {
		p1, p2 := arrayInitProblem(), arrayInitProblem()
		var seq, par Result
		var err error
		atProcs(1, func() { seq, err = LeastFixedPoint(p1, newEngine(), Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		atProcs(procs, func() { par, err = LeastFixedPoint(p2, newEngine(), Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		if seq.Found() != par.Found() {
			t.Fatalf("GOMAXPROCS=%d: proved=%v, sequential proved=%v", procs, par.Found(), seq.Found())
		}
		if ok, fail := p2.CheckAll(newEngine().S, par.Solution); !ok {
			t.Fatalf("GOMAXPROCS=%d returned non-invariant; failing path %v", procs, fail)
		}
	}
}

// TestParallelDeterministic re-runs LFP and GFP at GOMAXPROCS=4 and
// requires identical solutions every time: the head is picked by a stable
// sort and concurrent scoring lands in index order, so scheduling cannot
// leak into the outcome.
func TestParallelDeterministic(t *testing.T) {
	for _, dir := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"LFP", func() (Result, error) {
			return LeastFixedPoint(arrayInitProblem(), newEngine(), Options{All: true})
		}},
		{"GFP", func() (Result, error) {
			return GreatestFixedPoint(arrayInitProblem(), newEngine(), Options{All: true})
		}},
	} {
		first := ""
		for round := 0; round < 3; round++ {
			var res Result
			var err error
			atProcs(4, func() { res, err = dir.run() })
			if err != nil {
				t.Fatal(err)
			}
			key := solutionsKey(res)
			if round == 0 {
				first = key
				if !res.Found() {
					t.Fatalf("%s: no solution found", dir.name)
				}
				continue
			}
			if key != first {
				t.Errorf("%s round %d: solutions differ from round 0:\n%s\nvs\n%s", dir.name, round, key, first)
			}
		}
	}
}

// BenchmarkLFPSequential runs the paper's running example to a solution at
// GOMAXPROCS=1.
func BenchmarkLFPSequential(b *testing.B) {
	atProcs(1, func() {
		for i := 0; i < b.N; i++ {
			res, err := LeastFixedPoint(arrayInitProblem(), newEngine(), Options{})
			if err != nil || !res.Found() {
				b.Fatalf("err=%v found=%v", err, res.Found())
			}
		}
	})
}

// BenchmarkLFPParallel runs the same search at the process's GOMAXPROCS, so
// path scoring and the OptimalSolutions seeding fan out; per-op time here is
// the number to compare against BenchmarkLFPSequential.
func BenchmarkLFPParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := LeastFixedPoint(arrayInitProblem(), newEngine(), Options{})
		if err != nil || !res.Found() {
			b.Fatalf("err=%v found=%v", err, res.Found())
		}
	}
}

// TestParallelStopAbandons checks the cooperative-stop contract with the
// fan-outs at GOMAXPROCS=4: a Stop that fires immediately must end the run
// quickly with no solution claimed.
func TestParallelStopAbandons(t *testing.T) {
	stopped := make(chan struct{})
	close(stopped)
	stop := func() bool {
		select {
		case <-stopped:
			return true
		default:
			return false
		}
	}
	start := time.Now()
	var res Result
	var err error
	atProcs(4, func() { res, err = LeastFixedPoint(arrayInitProblem(), newEngine(), Options{Stop: stop}) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		t.Error("stopped run claimed a solution")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("stopped run took %v", elapsed)
	}
}
