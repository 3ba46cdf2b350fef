package cbi

import (
	"runtime"
	"testing"
)

// atProcs runs f with runtime.GOMAXPROCS set to n, restoring the old value
// afterwards. The planning phase's fan-out sizes itself from GOMAXPROCS.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestParallelEncodingMatchesSequential requires the parallel ψ_Prog
// encoder to produce the exact SAT instance of a single-threaded one — same
// clause and variable counts, same decoded solution — since clauses are
// assembled in path order no matter how the planning phase is scheduled.
func TestParallelEncodingMatchesSequential(t *testing.T) {
	var seq Result
	var err error
	atProcs(1, func() { seq, err = Solve(arrayInitProblem(), newEngine(), Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 8} {
		var par Result
		atProcs(procs, func() { par, err = Solve(arrayInitProblem(), newEngine(), Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		if par.Clauses != seq.Clauses || par.Vars != seq.Vars {
			t.Errorf("GOMAXPROCS=%d: SAT instance %d clauses/%d vars, sequential %d/%d",
				procs, par.Clauses, par.Vars, seq.Clauses, seq.Vars)
		}
		if par.Found() != seq.Found() {
			t.Errorf("GOMAXPROCS=%d: found=%v, sequential found=%v", procs, par.Found(), seq.Found())
		}
		if seq.Found() && par.Solution.Key() != seq.Solution.Key() {
			t.Errorf("GOMAXPROCS=%d: solution %s, sequential %s", procs, par.Solution, seq.Solution)
		}
	}
}

// TestParallelEncodingDeterministic re-runs the parallel encoder at
// GOMAXPROCS=4 and requires byte-identical instances across repetitions.
func TestParallelEncodingDeterministic(t *testing.T) {
	var clauses, vars int
	var key string
	for round := 0; round < 3; round++ {
		var res Result
		var err error
		atProcs(4, func() { res, err = Solve(arrayInitProblem(), newEngine(), Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found() {
			t.Fatal("no solution found")
		}
		if round == 0 {
			clauses, vars, key = res.Clauses, res.Vars, res.Solution.Key()
			continue
		}
		if res.Clauses != clauses || res.Vars != vars || res.Solution.Key() != key {
			t.Errorf("round %d: (%d clauses, %d vars, %s) differs from round 0 (%d, %d, %s)",
				round, res.Clauses, res.Vars, res.Solution.Key(), clauses, vars, key)
		}
	}
}

// TestParallelStopReturnsCleanly checks the Stop contract through the
// parallel planning phase at GOMAXPROCS=4.
func TestParallelStopReturnsCleanly(t *testing.T) {
	var res Result
	var err error
	atProcs(4, func() {
		res, err = Solve(arrayInitProblem(), newEngine(), Options{Stop: func() bool { return true }})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found() {
		t.Error("stopped run claimed a solution")
	}
}
