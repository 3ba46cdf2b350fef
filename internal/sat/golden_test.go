package sat

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// goldenCase is one fixed-seed search scenario: a random CNF instance on one
// persistent solver, probed repeatedly under the listed settings.
type goldenCase struct {
	name          string
	seed          int64
	nVars         int
	nClauses      int
	maxLearnts    int  // Solver.MaxLearnts
	fixedPolarity bool // Solver.FixedPolarity
	probes        int  // SolveAssuming calls
	maxAssume     int  // assumptions per probe are drawn from [0, maxAssume]
	switchOff     int  // variables switched off (SetDecision) for each probe
	addPerProbe   int  // random clauses added before each probe after the first
}

// goldenResult is what a scenario must reproduce exactly: the solver's work
// counters, the verdict counts, and an FNV-64a hash over the transcript of
// every probe's verdict, failed-assumption core and model.
type goldenResult struct {
	Conflicts, Decisions, Propagations, Restarts, Reduces, Deleted int64
	Sat, Unsat                                                     int
	Transcript                                                     uint64
}

func randomClause(rng *rand.Rand, nVars, width int) []Lit {
	c := make([]Lit, width)
	for i := range c {
		c[i] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
	}
	return c
}

// solve runs the scenario and returns its solver and result.
func (gc goldenCase) solve() (*Solver, goldenResult) {
	rng := rand.New(rand.NewSource(gc.seed))
	s := New()
	s.MaxLearnts = gc.maxLearnts
	s.FixedPolarity = gc.fixedPolarity
	for i := 0; i < gc.nVars; i++ {
		s.NewVar()
	}
	for i := 0; i < gc.nClauses; i++ {
		s.AddClause(randomClause(rng, gc.nVars, 3)...)
	}
	h := fnv.New64a()
	var res goldenResult
	var off []int
	for p := 0; p < gc.probes; p++ {
		if p > 0 {
			for i := 0; i < gc.addPerProbe; i++ {
				s.AddClause(randomClause(rng, gc.nVars, 3+rng.Intn(2))...)
			}
		}
		for _, v := range off {
			s.SetDecision(v, true)
		}
		off = off[:0]
		for i := 0; i < gc.switchOff; i++ {
			v := rng.Intn(gc.nVars)
			s.SetDecision(v, false)
			off = append(off, v)
		}
		assume := randomClause(rng, gc.nVars, rng.Intn(gc.maxAssume+1))
		st, core := s.SolveAssuming(assume...)
		fmt.Fprintf(h, "%d:%v:%v;", p, st, core)
		switch st {
		case Sat:
			res.Sat++
			for _, b := range s.Model() {
				if b {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		case Unsat:
			res.Unsat++
		}
	}
	res.Conflicts = s.Stats.Conflicts
	res.Decisions = s.Stats.Decisions
	res.Propagations = s.Stats.Propagations
	res.Restarts = s.Stats.Restarts
	res.Reduces = s.Stats.Reduces
	res.Deleted = s.Stats.Deleted
	res.Transcript = h.Sum64()
	return s, res
}

var goldenCases = []goldenCase{
	// Many reduceDB sweeps (and, with the arena, compactions) on hard
	// instances just below the 3-SAT threshold, both polarity modes.
	{name: "reduce", seed: 1, nVars: 200, nClauses: 820, maxLearnts: 6, probes: 8, maxAssume: 3, addPerProbe: 2},
	{name: "reduce-fixed-polarity", seed: 2, nVars: 200, nClauses: 820, maxLearnts: 6, fixedPolarity: true, probes: 8, maxAssume: 3, addPerProbe: 2},
	// Unbounded learnt database (one-shot solving's setting).
	{name: "keep-all", seed: 3, nVars: 150, nClauses: 615, probes: 6, maxAssume: 2},
	{name: "keep-all-fixed-polarity", seed: 4, nVars: 150, nClauses: 615, fixedPolarity: true, probes: 6, maxAssume: 2},
	// Long runs of assumption probes on an easier instance: many Unsat
	// verdicts with failed-assumption cores.
	{name: "assumptions", seed: 5, nVars: 60, nClauses: 220, maxLearnts: 8, probes: 150, maxAssume: 10},
	// Variables switched off per probe: this pins the search only; the
	// switched-off variables here are arbitrary, so SetDecision's
	// precondition for keeping verdicts need not hold.
	{name: "decision-off", seed: 6, nVars: 80, nClauses: 325, maxLearnts: 8, probes: 100, maxAssume: 12, switchOff: 15},
	{name: "decision-off-fixed-polarity", seed: 7, nVars: 80, nClauses: 325, maxLearnts: 8, fixedPolarity: true, probes: 100, maxAssume: 12, switchOff: 15},
}

// goldenWant was recorded from the pointer-based clause representation that
// preceded the clause arena; the search must repeat it bit for bit.
var goldenWant = map[string]goldenResult{
	"reduce":                      {Conflicts: 9083, Decisions: 11223, Propagations: 446657, Restarts: 17, Reduces: 27, Deleted: 7582, Sat: 7, Unsat: 1, Transcript: 0xdf16532e8873b371},
	"reduce-fixed-polarity":       {Conflicts: 8061, Decisions: 9878, Propagations: 397414, Restarts: 26, Reduces: 26, Deleted: 6708, Sat: 7, Unsat: 1, Transcript: 0x5e5a4ae04c4d7fd8},
	"keep-all":                    {Conflicts: 868, Decisions: 1220, Propagations: 36389, Restarts: 4, Reduces: 0, Deleted: 0, Sat: 6, Unsat: 0, Transcript: 0x46c2b07f72b8b522},
	"keep-all-fixed-polarity":     {Conflicts: 4780, Decisions: 5850, Propagations: 191125, Restarts: 17, Reduces: 0, Deleted: 0, Sat: 6, Unsat: 0, Transcript: 0xa6455218c447f560},
	"assumptions":                 {Conflicts: 256, Decisions: 906, Propagations: 8553, Restarts: 0, Reduces: 6, Deleted: 145, Sat: 60, Unsat: 90, Transcript: 0x7f242b90a53f337b},
	"decision-off":                {Conflicts: 116, Decisions: 1707, Propagations: 5003, Restarts: 0, Reduces: 4, Deleted: 67, Sat: 75, Unsat: 25, Transcript: 0x385c5de87d73d2e1},
	"decision-off-fixed-polarity": {Conflicts: 243, Decisions: 1606, Propagations: 7566, Restarts: 0, Reduces: 6, Deleted: 153, Sat: 72, Unsat: 28, Transcript: 0x82e98c27796f1a11},
}

// TestGoldenSearch pins the solver's search: fixed-seed random instances
// under bounded and unbounded learnt databases, both polarity modes,
// repeated assumption probes and switched-off variables must reproduce the
// exact work counters, verdicts, failed-assumption cores and models. The
// clause arena's invariants must hold at the end of each scenario, and the
// bounded ones must have compacted it.
func TestGoldenSearch(t *testing.T) {
	compactions := 0
	for _, gc := range goldenCases {
		s, got := gc.solve()
		checkArena(t, s)
		compactions += s.compactions
		want, ok := goldenWant[gc.name]
		if !ok {
			t.Errorf("%s: no golden values; got %#v", gc.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s:\n got %#v\nwant %#v", gc.name, got, want)
		}
	}
	if compactions < 10 {
		t.Errorf("the scenarios compacted the arena %d times, want at least 10", compactions)
	}
}
