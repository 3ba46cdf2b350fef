// Package fixpoint implements the two iterative invariant-inference
// algorithms of §4 (Fig. 3): LeastFixedPoint propagates facts forward from
// the strongest template instantiation, weakening along failing paths;
// GreatestFixedPoint propagates backward from the weakest instantiation,
// strengthening along failing paths. Both maintain a set of candidate
// solutions and replace a failing candidate by the optimal solutions of the
// failing path's verification condition.
package fixpoint

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/logic"
	"repro/internal/optimal"
	"repro/internal/par"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/template"
	"repro/internal/vc"
)

// Options bounds an iterative run.
type Options struct {
	// MaxSteps bounds worklist iterations (default 500).
	MaxSteps int
	// MaxCandidates bounds the candidate set (default 64); excess candidates
	// are dropped oldest-first, which can cost completeness but never
	// soundness.
	MaxCandidates int
	// Stats optionally records Figure 8 candidate counts.
	Stats *stats.Collector
	// All requests exhaustive search: instead of stopping at the first
	// invariant solution the run continues until every candidate is
	// resolved, returning all fixed-point solutions found (used for
	// maximally-weak precondition enumeration, §6).
	All bool
	// Stop, when non-nil, is polled between worklist steps; returning true
	// abandons the run (used by timeout-bounded harnesses so abandoned
	// runs stop consuming CPU).
	Stop func() bool
}

func (o Options) normalize() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 500
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 64
	}
	return o
}

// Result reports the outcome of an iterative run.
type Result struct {
	// Solution is the first invariant solution found (nil if none).
	Solution template.Solution
	// All contains every invariant solution found when Options.All is set.
	All []template.Solution
	// Steps is the number of worklist iterations executed.
	Steps int
	// Exhausted reports that the candidate set emptied (definite "no
	// solution in this template/predicate space" modulo solver
	// incompleteness); false with a nil Solution means MaxSteps was hit.
	Exhausted bool
	// Truncated reports that the search space was clipped: candidates were
	// dropped at the MaxCandidates cap, or an exhaustive (Options.All) run
	// ended at MaxSteps with candidates still unresolved. A truncated
	// Options.All enumeration may be missing fixed-point solutions, so §6
	// extremal sets computed from it are best-effort.
	Truncated bool
	// Aborted reports that Options.Stop fired and the run was abandoned
	// early. An aborted run's nil Solution is not evidence of absence.
	Aborted bool
}

// Found reports whether an invariant solution was discovered.
func (r Result) Found() bool { return r.Solution != nil }

type direction int

const (
	forward direction = iota
	backward
)

// LeastFixedPoint runs Fig. 3(a).
func LeastFixedPoint(p *spec.Problem, eng *optimal.Engine, opts Options) (Result, error) {
	return run(p, eng, opts, forward)
}

// GreatestFixedPoint runs Fig. 3(b).
func GreatestFixedPoint(p *spec.Problem, eng *optimal.Engine, opts Options) (Result, error) {
	return run(p, eng, opts, backward)
}

func run(p *spec.Problem, eng *optimal.Engine, opts Options, dir direction) (Result, error) {
	opts = opts.normalize()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	var sigma0 template.Solution
	var err error
	if dir == forward {
		sigma0, err = p.InitialLFP()
	} else {
		sigma0, err = p.InitialGFP()
	}
	if err != nil {
		return Result{}, err
	}

	// The worklist is goal-directed: the paper's "choose σ ∈ S, path" is
	// unspecified. Picking the candidate with the fewest failing paths
	// keeps floods of vacuous candidates from starving promising ones, and
	// preferring a failing path the algorithm can re-solve (one whose
	// source — GFP — or target — LFP — template has unknowns) lets a
	// candidate keep strengthening/weakening instead of dying on a fixed
	// entry or exit condition it might satisfy after further steps.
	progressable := func(path vc.Path) bool {
		if dir == forward {
			return len(logic.Unknowns(p.TemplateAt(path.To))) > 0
		}
		return len(logic.Unknowns(p.TemplateAt(path.From))) > 0
	}
	type scored struct {
		sigma   template.Solution
		fails   int
		fail    *vc.Path
		failIdx int
		seq     int
	}
	// Every candidate is scored against the same per-path VC skeletons, so
	// each probe goes through the path's context.
	pathValid := func(i int, sigma template.Solution) bool {
		f, fill := p.PathVCFill(i, sigma)
		return eng.S.ContextFor(p.PathVCSkeleton(i)).ValidFill(f, fill)
	}
	score := func(sigma template.Solution, seq int) scored {
		s := scored{sigma: sigma, seq: seq, failIdx: -1}
		// Probe every path concurrently (each goes through its own skeleton
		// context, and a contended context serves its probes in turn); the
		// fold below stays sequential in path order, so the failing path a
		// candidate is repaired on is deterministic.
		valid := make([]bool, len(p.Paths()))
		par.ForEach(len(valid), runtime.GOMAXPROCS(0), func(i int) {
			valid[i] = pathValid(i, sigma)
		})
		for i := range p.Paths() {
			if !valid[i] {
				path := p.Paths()[i]
				s.fails++
				if s.fail == nil || (!progressable(*s.fail) && progressable(path)) {
					s.fail = &p.Paths()[i]
					s.failIdx = i
				}
			}
		}
		return s
	}
	cands := []scored{score(sigma0, 0)}
	seen := map[string]bool{sigma0.Key(): true}
	seq := 1
	var res Result
	for step := 0; step < opts.MaxSteps && len(cands) > 0; {
		if opts.Stop != nil && opts.Stop() {
			res.Aborted = true
			break
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].fails != cands[j].fails {
				return cands[i].fails < cands[j].fails
			}
			return cands[i].seq < cands[j].seq
		})
		if cands[0].fails == 0 {
			step++
			res.Steps = step
			opts.Stats.RecordCandidates(len(cands))
			best := cands[0]
			cands = cands[1:]
			if !opts.All {
				res.Solution = best.sigma
				return res, nil
			}
			if res.Solution == nil {
				res.Solution = best.sigma
			}
			res.All = append(res.All, best.sigma)
			continue
		}

		// Repair the head: after the sort it is the best failing candidate,
		// and its repair is one OptimalSolutions call on its failing path's
		// VC (Fig. 3, lines 6-7), so the search path depends on the input
		// alone.
		head := cands[0]
		cands = cands[1:]
		step++
		res.Steps = step
		opts.Stats.RecordCandidates(len(cands) + 1)

		// step1 returns solutions stably sorted by canonical key; the fresh
		// ones are scored concurrently and appended in that order.
		var fresh []template.Solution
		for _, next := range step1(p, eng, head.sigma, head.failIdx, dir) {
			k := next.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if len(cands)+len(fresh) >= opts.MaxCandidates {
				res.Truncated = true
				continue
			}
			fresh = append(fresh, next)
		}
		newScored := make([]scored, len(fresh))
		par.ForEach(len(fresh), runtime.GOMAXPROCS(0), func(i int) {
			newScored[i] = score(fresh[i], 0)
		})
		for i := range newScored {
			newScored[i].seq = seq
			seq++
			cands = append(cands, newScored[i])
		}
	}
	if !res.Aborted && opts.Stop != nil && opts.Stop() {
		// Stop fired mid-step (inside a repair or a scoring worker): the
		// step's partial results are conservative, but the run is still an
		// abort, not a completed search.
		res.Aborted = true
	}
	res.Exhausted = len(cands) == 0 && !res.Aborted
	if opts.All && !res.Exhausted && !res.Aborted {
		// An exhaustive enumeration that ran out of steps with candidates
		// still pending may be missing fixed-point solutions.
		res.Truncated = true
	}
	if opts.All && res.Solution != nil {
		res.All = dedupeSolutions(res.All)
	}
	return res, nil
}

// step1 performs one worklist update (Fig. 3, lines 6-7): replace sigma by
// the optimal re-solutions of the failing path's VC (by path index, so the
// problem's compiled skeletons are reused).
func step1(p *spec.Problem, eng *optimal.Engine, sigma template.Solution, pathIdx int, dir direction) []template.Solution {
	if dir == forward {
		return stepForward(p, eng, sigma, pathIdx)
	}
	return stepBackward(p, eng, sigma, pathIdx)
}

func stepForward(p *spec.Problem, eng *optimal.Engine, sigma template.Solution, pathIdx int) []template.Solution {
	path := p.Paths()[pathIdx]
	tmplTo := p.TemplateAt(path.To)
	toUnknowns := logic.Unknowns(tmplTo)
	if len(toUnknowns) == 0 {
		return nil // e.g. an assertion path into exit: nothing to weaken
	}
	// φ := VC(⟨τ1σ, δ, τ2⟩) ∧ θ with θ := τ2σ ⇒ τ2, over SSA exit variables.
	vcf := p.ForwardVCAt(pathIdx, sigma)
	postCur := path.Sigma.Apply(p.FillTemplateAt(path.To, sigma))
	theta := logic.Imp(postCur, p.RenamedTemplateTo(pathIdx))
	phi := logic.Conj(vcf, theta)

	domain := template.Domain{}
	for _, u := range toUnknowns {
		domain[u] = p.Q[u]
	}
	domain = domain.Rename(path.Sigma)

	inv := path.Sigma.Inverse()
	sigmaP := sigma.RestrictComplement(toUnknowns)
	var out []template.Solution
	for _, sol := range eng.OptimalSolutions(phi, domain) {
		out = append(out, sol.Rename(inv).Merge(sigmaP))
	}
	return out
}

func stepBackward(p *spec.Problem, eng *optimal.Engine, sigma template.Solution, pathIdx int) []template.Solution {
	path := p.Paths()[pathIdx]
	tmplFrom := p.TemplateAt(path.From)
	fromUnknowns := logic.Unknowns(tmplFrom)
	if len(fromUnknowns) == 0 {
		return nil // e.g. a path out of entry with a fixed (true) precondition
	}
	// φ := VC(⟨τ1, δ, τ2σ·σt⟩) ∧ θ with θ := τ1 ⇒ τ1σ, over program variables.
	vcf := p.BackwardVCAt(pathIdx, sigma)
	theta := logic.Imp(tmplFrom, p.FillTemplateAt(path.From, sigma))
	phi := logic.Conj(vcf, theta)

	domain := template.Domain{}
	for _, u := range fromUnknowns {
		domain[u] = p.Q[u]
	}
	sigmaP := sigma.RestrictComplement(fromUnknowns)
	var out []template.Solution
	for _, sol := range eng.OptimalSolutions(phi, domain) {
		out = append(out, sol.Merge(sigmaP))
	}
	return out
}

func dedupeSolutions(ss []template.Solution) []template.Solution {
	seen := map[string]bool{}
	out := ss[:0:0]
	for _, s := range ss {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// String renders a solution against a problem's templates for display.
func String(p *spec.Problem, sigma template.Solution) string {
	out := ""
	for _, cut := range append([]string{vc.Entry}, append(p.Prog.CutPoints(), vc.Exit)...) {
		t := p.TemplateAt(cut)
		if len(logic.Unknowns(t)) == 0 {
			continue
		}
		out += fmt.Sprintf("%s: %s\n", cut, logic.Simplify(sigma.Fill(t)))
	}
	return out
}
