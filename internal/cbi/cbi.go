// Package cbi implements the constraint-based fixed-point algorithm of §5:
// the verification condition of the whole program is encoded as a boolean
// formula ψ_Prog over indicator variables b_{v,q} ("predicate q is chosen
// for unknown v"), built from OptimalNegativeSolutions calls, and solved
// with the CDCL SAT solver. A satisfying assignment decodes to a candidate
// invariant solution, which is re-verified against the SMT solver; failed
// candidates are blocked and the SAT search resumes, so the returned
// solution always validates VC(Prog, σ).
package cbi

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/logic"
	"repro/internal/optimal"
	"repro/internal/par"
	"repro/internal/sat"
	"repro/internal/spec"
	"repro/internal/ssa"
	"repro/internal/stats"
	"repro/internal/template"
)

// Options bounds a constraint-based run.
type Options struct {
	// MaxModels bounds how many SAT models are decoded and re-verified
	// before giving up (default 64).
	MaxModels int
	// Stop, when non-nil, is polled between encoding steps and SAT models;
	// returning true abandons the run.
	Stop func() bool
	// Stats optionally records Figure 9 SAT formula sizes.
	Stats *stats.Collector
}

func (o Options) normalize() Options {
	if o.MaxModels == 0 {
		o.MaxModels = 64
	}
	return o
}

// Result reports the outcome of a constraint-based run.
type Result struct {
	// Solution is the invariant solution found (nil if none).
	Solution template.Solution
	// Clauses and Vars describe the ψ_Prog SAT instance (Figure 9).
	Clauses, Vars int
	// Models is the number of SAT models examined.
	Models int
	// Truncated reports that the model search stopped at MaxModels with the
	// SAT instance still satisfiable: more candidate assignments existed but
	// were never decoded, so a nil Solution is not evidence of absence.
	Truncated bool
	// Aborted reports that Options.Stop fired and the run was abandoned
	// early (during encoding or between SAT models).
	Aborted bool
}

// Found reports whether an invariant solution was discovered.
func (r Result) Found() bool { return r.Solution != nil }

// bvar identifies an indicator variable b_{v,q} by unknown name and the
// interned identity of the (original-variable) predicate. Interned handles
// are pointer-unique per structure, so this keys exactly like the canonical
// string form did, without serializing the predicate on every lookup.
type bvar struct {
	unknown string
	pred    *logic.IFormula
}

// encoder accumulates ψ_Prog.
type encoder struct {
	s     *sat.Solver
	vars  map[bvar]int
	preds map[bvar]keyedPred // remembers the predicate for decoding
}

// keyedPred is a predicate with its PredSet key (p.String()), so decoding a
// model adds it to σ without rendering it again.
type keyedPred struct {
	p   logic.Formula
	key string
}

// vidx returns the boolean variable of (u, p); key must be p.String().
func (e *encoder) vidx(u string, p logic.Formula, key string) int {
	k := bvar{unknown: u, pred: logic.Intern(p)}
	if v, ok := e.vars[k]; ok {
		return v
	}
	v := e.s.NewVar()
	e.vars[k] = v
	e.preds[k] = keyedPred{p: p, key: key}
	return v
}

// Solve runs the constraint-based algorithm on a problem.
func Solve(p *spec.Problem, eng *optimal.Engine, opts Options) (Result, error) {
	opts = opts.normalize()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	enc := &encoder{s: sat.New(), vars: map[bvar]int{}, preds: map[bvar]keyedPred{}}

	// Phase 1 (sequential, cheap): per-path setup — renamings, polarity
	// splits, vocabulary domains, compiled fillers — plus one job descriptor
	// per OptimalNegativeSolutions call the path needs.
	paths := p.Paths()
	plans := make([]*pathPlan, len(paths))
	var jobs []negJob
	for i := range paths {
		plan, pjobs := planPath(p, eng, i)
		if plan.err != nil {
			return Result{}, fmt.Errorf("cbi: path %s->%s: %w", paths[i].From, paths[i].To, plan.err)
		}
		plans[i] = plan
		jobs = append(jobs, pjobs...)
	}
	// Phase 2 (parallel, GOMAXPROCS workers): the OptimalNegativeSolutions
	// calls that dominate encoding time. Every path's base case and positive
	// cases are flattened into one job list, so the worker pool
	// load-balances across paths instead of stalling on the path with the
	// most cases.
	par.ForEach(len(jobs), runtime.GOMAXPROCS(0), func(k int) {
		if opts.Stop != nil && opts.Stop() {
			return
		}
		j := jobs[k]
		*j.dst = eng.OptimalNegativeSolutions(j.fl.FillSolution(j.fill), j.dom)
	})
	if opts.Stop != nil && opts.Stop() {
		return Result{Aborted: true}, nil
	}
	// Phase 3 (sequential, path order): emit clauses. Assembly order is
	// fixed by the path order, so the SAT instance — variable numbering
	// included — is byte-identical to a sequential encoding.
	for _, plan := range plans {
		emitPath(enc, plan)
	}
	res := Result{Clauses: enc.s.NumClauses(), Vars: enc.s.NumVars()}
	opts.Stats.RecordSATSize(res.Clauses, res.Vars)

	// Enumerate models, decode, and re-verify until one candidate passes
	// the full VC(Prog, σ) check.
	for res.Models < opts.MaxModels {
		if opts.Stop != nil && opts.Stop() {
			res.Aborted = true
			return res, nil
		}
		if enc.s.Solve() != sat.Sat {
			// The blocked instance is unsatisfiable: the indicator space is
			// genuinely exhausted, a definite negative.
			return res, nil
		}
		res.Models++
		sigma := decode(p, enc)
		if ok, _ := p.CheckAll(eng.S, sigma); ok {
			res.Solution = sigma
			return res, nil
		}
		// A candidate that fails re-verification after Stop fired may be a
		// conservative solver verdict, not a real counterexample; report the
		// run as aborted rather than blocking on bogus evidence.
		if opts.Stop != nil && opts.Stop() {
			res.Aborted = true
			return res, nil
		}
		// Block this exact assignment of the indicator variables.
		blocking := make([]sat.Lit, 0, len(enc.vars))
		for _, v := range sortedVarIdxs(enc) {
			blocking = append(blocking, sat.MkLit(v, enc.s.Value(v)))
		}
		if !enc.s.AddClause(blocking...) {
			return res, nil
		}
	}
	// The loop can only fall through by hitting MaxModels with the instance
	// still satisfiable: candidate assignments remain undecoded.
	res.Truncated = true
	return res, nil
}

func sortedVarIdxs(enc *encoder) []int {
	out := make([]int, 0, len(enc.vars))
	for _, v := range enc.vars {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// pathPlan holds everything one path contributes to ψ_Prog, computed
// without touching the shared encoder so paths can be planned in parallel.
type pathPlan struct {
	err error
	// t1Unknowns / orig / inv translate φ-level solutions back to original
	// unknowns and original-variable predicates during emission.
	t1Unknowns map[string]bool
	orig       map[string]string
	inv        ssa.Renaming
	// base is S_{δ,τ1,τ2}: the optimal negative supports with every
	// positive unknown empty.
	base []template.Solution
	// posCases holds one cover per (positive unknown, predicate) choice.
	posCases []posCase
}

// posCase is one b_{v,q} ⇒ ∨ BC(S^{ρ,q}) implication awaiting emission.
type posCase struct {
	ou   string        // original unknown name
	oq   logic.Formula // original-variable predicate (the b_{v,q} guard)
	sols []template.Solution
}

// negJob is one deferred OptimalNegativeSolutions call: fill the path's
// compiled VC skeleton with a positive-side choice and write the optimal
// negative supports into its plan slot. Jobs from every path go through one
// shared worker pool; the Filler is immutable, so concurrent jobs on the
// same path are safe.
type negJob struct {
	fl   *template.Filler
	fill template.Solution
	dom  template.Domain
	dst  *[]template.Solution
}

// planPath computes ψ_{δ,τ1,τ2,σt}'s ingredients for one path (§5.2): the
// renaming data needed to translate solutions back to original unknowns,
// plus one negJob per optimal-support computation (the base case and each
// (unknown, predicate) positive case). It is index-based so the VC is built
// through the problem's compiled skeleton and the fills reuse the engine's
// compiled filler for φ.
func planPath(p *spec.Problem, eng *optimal.Engine, pi int) (*pathPlan, []negJob) {
	path := p.Paths()[pi]
	t1 := p.TemplateAt(path.From)
	t2 := p.TemplateAt(path.To)

	// Rename τ2's unknowns when both ends share the template (loop paths),
	// keeping the orig mapping back to the original unknown names.
	orig := map[string]string{}
	for _, u := range logic.Unknowns(t1) {
		orig[u] = u
	}
	t2r := t2
	if sharesUnknowns(t1, t2) {
		ren := map[string]string{}
		for _, u := range logic.Unknowns(t2) {
			ren[u] = u + "@post"
		}
		t2r = template.RenameUnknowns(t2, ren)
		for u, ru := range ren {
			orig[ru] = u
		}
	} else {
		for _, u := range logic.Unknowns(t2) {
			orig[u] = u
		}
	}
	// τ2 lives over the path's SSA exit variables.
	t2ssa := path.Sigma.Apply(t2r)
	phi := p.VCAt(pi, t1, t2ssa)

	pol, err := template.Polarities(phi)
	if err != nil {
		return &pathPlan{err: err}, nil
	}
	pos, neg := template.Split(pol)

	// fromUnknown reports whether an unknown of φ came from τ1 (original
	// variables) rather than τ2 (σt-renamed variables).
	t1Unknowns := map[string]bool{}
	for _, u := range logic.Unknowns(t1) {
		t1Unknowns[u] = true
	}
	inv := path.Sigma.Inverse()

	// Q′: the vocabulary of each unknown of φ, renamed for τ2-side unknowns.
	qp := template.Domain{}
	for _, u := range append(append([]string(nil), pos...), neg...) {
		base := p.Q[orig[u]]
		if t1Unknowns[u] {
			qp[u] = base
		} else {
			renamed := make([]logic.Formula, len(base))
			for i, q := range base {
				renamed[i] = path.Sigma.Apply(q)
			}
			qp[u] = renamed
		}
	}
	negDomain := template.Domain{}
	for _, n := range neg {
		negDomain[n] = qp[n]
	}

	emptyPos := template.Solution{}
	for _, r := range pos {
		emptyPos[r] = template.NewPredSet()
	}
	plan := &pathPlan{t1Unknowns: t1Unknowns, orig: orig, inv: inv}

	// All positive-case fills instantiate the same φ, so they share the
	// engine's compiled filler for it.
	fl := eng.Filler(phi)

	// Base case: S_{δ,τ1,τ2} with every positive unknown empty; at least one
	// optimal negative support must be chosen.
	jobs := []negJob{{fl: fl, fill: emptyPos, dom: negDomain}}

	// Positive cases: b_{orig(ρ),q·σt⁻¹} ⇒ ∨ BC(S^{ρ,q}).
	for _, r := range pos {
		for qi, q := range qp[r] {
			posPart := emptyPos.Clone()
			posPart[r] = template.NewPredSet(q)
			plan.posCases = append(plan.posCases, posCase{ou: orig[r], oq: p.Q[orig[r]][qi]})
			jobs = append(jobs, negJob{fl: fl, fill: posPart, dom: negDomain})
		}
	}
	// Destinations are wired up only once posCases has stopped growing, so
	// the pointers survive the appends above.
	jobs[0].dst = &plan.base
	for i := range plan.posCases {
		jobs[i+1].dst = &plan.posCases[i].sols
	}
	return plan, jobs
}

// emitPath adds a planned path's clauses to the SAT instance. Only this
// phase touches the shared encoder; it runs sequentially in path order.
func emitPath(enc *encoder, plan *pathPlan) {
	// bc maps a solution over φ's unknowns to blocking literals over
	// original unknowns and original-variable predicates.
	bc := func(sol template.Solution) []sat.Lit {
		var lits []sat.Lit
		for u, ps := range sol {
			ou, ops := plan.orig[u], ps
			if !plan.t1Unknowns[u] {
				ops = ps.Rename(plan.inv)
			}
			keys := ops.Keys()
			for i, q := range ops.Preds() {
				lits = append(lits, sat.MkLit(enc.vidx(ou, q, keys[i]), false))
			}
		}
		sort.Slice(lits, func(i, j int) bool { return lits[i] < lits[j] })
		return lits
	}
	addCover(enc, nil, plan.base, bc)
	for _, pc := range plan.posCases {
		guard := sat.MkLit(enc.vidx(pc.ou, pc.oq, pc.oq.String()), true) // ¬b ∨ cover
		addCover(enc, []sat.Lit{guard}, pc.sols, bc)
	}
}

// addCover encodes guard ⇒ (∨_{t∈sols} BC(t)) by introducing one selector
// variable per disjunct.
func addCover(enc *encoder, guard []sat.Lit, sols []template.Solution, bc func(template.Solution) []sat.Lit) {
	if len(sols) == 0 {
		// No support: the guard must be false (or, with no guard, the whole
		// instance is unsatisfiable).
		if len(guard) == 0 {
			enc.s.AddClause() // empty clause
			return
		}
		enc.s.AddClause(guard...)
		return
	}
	clause := append([]sat.Lit(nil), guard...)
	for _, sol := range sols {
		lits := bc(sol)
		if len(lits) == 0 {
			// An empty support (σ maps every negative to ∅) is trivially
			// chosen: the implication is satisfied outright.
			return
		}
		if len(lits) == 1 {
			clause = append(clause, lits[0])
			continue
		}
		sel := enc.s.NewVar()
		selLit := sat.MkLit(sel, false)
		for _, l := range lits {
			enc.s.AddClause(selLit.Not(), l)
		}
		clause = append(clause, selLit)
	}
	enc.s.AddClause(clause...)
}

// decode reads the model into a solution over the original unknowns.
func decode(p *spec.Problem, enc *encoder) template.Solution {
	sigma := template.Solution{}
	for _, u := range p.Unknowns() {
		sigma[u] = template.NewPredSet()
	}
	for k, v := range enc.vars {
		if enc.s.Value(v) {
			kp := enc.preds[k]
			sigma[k.unknown] = sigma[k.unknown].AddKeyed(kp.p, kp.key)
		}
	}
	return sigma
}

func sharesUnknowns(t1, t2 logic.Formula) bool {
	u1 := map[string]bool{}
	for _, u := range logic.Unknowns(t1) {
		u1[u] = true
	}
	for _, u := range logic.Unknowns(t2) {
		if u1[u] {
			return true
		}
	}
	return false
}
