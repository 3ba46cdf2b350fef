// Map-solver-guided enumeration of optimal negative solutions. Instead of
// walking the predicate-subset lattice breadth-first and re-filtering every
// candidate against found solutions and known cores in Go loops, a dedicated
// SAT solver (the "map solver", after the MARCO family of MUS/MSS
// enumerators) maintains the unexplored region symbolically: one boolean per
// (unknown, predicate) choice, a sequential-counter cardinality ladder for
// the depth bound, and one blocking clause per found solution, failed
// proposal, and inconsistency core. Each model of the map is an unexplored
// lattice point; validity is upward-closed over predicate sets for negative
// unknowns, so a valid proposal shrinks to a minimal solution (blocking its
// whole up-set) and an invalid proposal blocks its whole down-set. The map
// going unsat is the termination proof: every point of the bounded lattice
// is covered by some blocked sublattice.
package optimal

import (
	"sort"

	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/template"
)

// negMap enumerates the minimal consistent solutions of one
// unknown-connected group, returning exactly the sets the legacy negBFS
// returns (see DESIGN.md §11 for the identity argument). Item universe,
// pre-checks, probe routing, and consistency screening are shared with the
// BFS; only the order the lattice is explored in differs.
func (e *Engine) negMap(phi logic.Formula, q template.Domain) []template.Solution {
	unknowns := logic.Unknowns(phi)
	empty := template.Solution{}
	for _, u := range unknowns {
		empty[u] = template.NewPredSet()
	}
	if len(unknowns) == 0 {
		if e.S.Valid(phi) {
			return []template.Solution{{}}
		}
		return nil
	}
	// The deduplicated item universe, in the same deterministic order as
	// negBFS; map variable i is item i.
	items, indexOf := itemUniverse(unknowns, q)
	fl := e.Filler(phi)
	ctx := e.S.ContextFor(logic.Intern(phi))
	probe := func(sigma template.Solution) bool {
		f := fl.FillSolution(sigma)
		if ctx != nil {
			return ctx.Valid(f)
		}
		return e.S.Valid(f)
	}
	// Monotonicity pre-checks, as in negBFS: if the full assignment is not
	// valid no subset is, and if the empty assignment is valid it is the
	// unique minimal solution.
	full := empty.Clone()
	for _, it := range items {
		it.addTo(full)
	}
	if !probe(full) {
		return nil
	}
	if probe(empty) {
		return []template.Solution{empty}
	}

	// The map solver. FixedPolarity pins every branch decision to false, so
	// models carry as few items as propagation allows: proposals arrive
	// near-minimal and shrink cheaply.
	ms := sat.New()
	ms.FixedPolarity = true
	for range items {
		ms.NewVar()
	}
	pos := func(i int) sat.Lit { return sat.MkLit(i, false) }
	neg := func(i int) sat.Lit { return sat.MkLit(i, true) }
	addAtMost(ms, len(items), e.maxDepth())
	// The empty set was probed invalid above; its down-set is itself, so the
	// blocking clause is "at least one item".
	least := make([]sat.Lit, len(items))
	for i := range items {
		least[i] = pos(i)
	}
	ms.AddClause(least...)
	// Seed with the persisted cores expressible in this universe: each kills
	// its whole superset sublattice before the first proposal.
	scratch := make([]sat.Lit, 0, len(items))
	blockMask := func(m bitmask) {
		scratch = scratch[:0]
		for i := range items {
			if m[i/64]&(1<<uint(i%64)) != 0 {
				scratch = append(scratch, neg(i))
			}
		}
		ms.AddClause(scratch...)
	}
	for _, m := range e.cores.masks(indexOf, len(items)) {
		blockMask(m)
	}

	type found struct {
		sigma template.Solution
		sel   []int
	}
	var sols []found
	sel := make([]int, 0, e.maxDepth())
	for {
		if e.Stop != nil && e.Stop() {
			break
		}
		if ms.Solve() != sat.Sat {
			break // every bounded lattice point is blocked: enumeration complete
		}
		sel = sel[:0]
		for i := range items {
			if ms.Value(i) {
				sel = append(sel, i)
			}
		}
		cand := negSolutionOf(empty, items, sel)
		if e.screenConsistency(ms, cand, sel, items, indexOf) {
			continue
		}
		if !probe(cand) {
			// Invalid, and validity is upward-closed: every subset is
			// invalid too. Grow the proposal to a maximal invalid set
			// within the depth bound first — FixedPolarity keeps proposals
			// near-minimal, so the raw down-set would be tiny, while every
			// item the grown set absorbs doubles the blocked sublattice.
			// Growth is guided by the probe alone: an extension is taken
			// exactly when it stays invalid, so the blocked down-set never
			// contains a valid point.
			grown := e.growSel(probe, empty, items, cand, sel)
			scratch = scratch[:0]
			inSel := newBitmask(len(items))
			for _, i := range grown {
				inSel[i/64] |= 1 << uint(i%64)
			}
			for i := range items {
				if inSel[i/64]&(1<<uint(i%64)) == 0 {
					scratch = append(scratch, pos(i))
				}
			}
			ms.AddClause(scratch...)
			continue
		}
		// Valid: shrink to a minimal valid subset. Local minimality is
		// global here (upward-closed validity), and subsets of a consistent
		// proposal stay consistent, so no re-screening is needed.
		min := e.shrinkSel(probe, empty, items, sel)
		sols = append(sols, found{sigma: negSolutionOf(empty, items, min), sel: min})
		// Block the up-set: any superset of a minimal solution is either
		// that solution or non-minimal.
		scratch = scratch[:0]
		for _, i := range min {
			scratch = append(scratch, neg(i))
		}
		ms.AddClause(scratch...)
	}

	// Emit in the legacy BFS discovery order — by size, then lexicographic
	// item indices — so downstream consumers (seed merging, ψ_Prog clause
	// layout) see byte-identical inputs in both modes.
	sort.Slice(sols, func(a, b int) bool {
		sa, sb := sols[a].sel, sols[b].sel
		if len(sa) != len(sb) {
			return len(sa) < len(sb)
		}
		for k := range sa {
			if sa[k] != sb[k] {
				return sa[k] < sb[k]
			}
		}
		return false
	})
	out := make([]template.Solution, len(sols))
	for i, f := range sols {
		out[i] = f.sigma
	}
	return truncateSolutions(out, e.maxSolutions())
}

// growSel extends an invalid selection to a maximal invalid set within the
// depth bound, trying items in canonical order and keeping exactly the
// extensions whose probe stays invalid. The caller blocks the grown set's
// down-set; since invalidity is downward-closed and every kept extension was
// probed invalid, no valid lattice point is ever blocked.
func (e *Engine) growSel(probe func(template.Solution) bool, empty template.Solution, items []taggedPred, cand template.Solution, sel []int) []int {
	out := append([]int(nil), sel...)
	if len(out) >= e.maxDepth() {
		return out
	}
	in := make([]bool, len(items))
	for _, i := range out {
		in[i] = true
	}
	for i := 0; i < len(items) && len(out) < e.maxDepth(); i++ {
		if in[i] {
			continue
		}
		if e.Stop != nil && e.Stop() {
			break
		}
		trial := cand.Clone()
		items[i].addTo(trial)
		if !probe(trial) {
			cand = trial
			out = append(out, i)
			in[i] = true
		}
	}
	return out
}

// negSolutionOf materializes the solution selecting the given item indices.
func negSolutionOf(empty template.Solution, items []taggedPred, sel []int) template.Solution {
	s := empty.Clone()
	for _, i := range sel {
		items[i].addTo(s)
	}
	return s
}

// screenConsistency rejects proposals with a contradictory per-unknown
// predicate set (the same screen negBFS applies before probing): every
// inconsistent unknown contributes a blocking clause to the map solver — the
// unsat core's up-set when the probe yields one, the exact per-unknown
// selection otherwise — and fresh cores are persisted for later searches.
// Reports whether the proposal was rejected.
func (e *Engine) screenConsistency(ms *sat.Solver, cand template.Solution, sel []int, items []taggedPred, indexOf map[coreItem]int) bool {
	blocked := false
	for _, u := range sortedUnknowns(cand) {
		if cand[u].Len() < 2 {
			continue
		}
		sat2, core, fresh := e.satisfiableSet(cand[u])
		if sat2 {
			continue
		}
		blocked = true
		e.corePruned.Add(1)
		var cls []sat.Lit
		if len(core) > 0 {
			usable := true
			for _, p := range core {
				i, present := indexOf[coreItem{unknown: u, pred: logic.Intern(p)}]
				if !present {
					usable = false
					break
				}
				cls = append(cls, sat.MkLit(i, true))
			}
			if usable {
				ms.AddClause(cls...)
			} else {
				cls = nil
			}
			if fresh {
				e.storeCoreStats(u, core)
			}
		}
		if cls == nil {
			// No core: block the exact per-unknown selection and above.
			for _, i := range sel {
				if items[i].unknown == u {
					cls = append(cls, sat.MkLit(i, true))
				}
			}
			ms.AddClause(cls...)
		}
	}
	return blocked
}

// sortedUnknowns returns the solution's unknowns in deterministic order.
func sortedUnknowns(s template.Solution) []string {
	us := make([]string, 0, len(s))
	for u := range s {
		us = append(us, u)
	}
	sort.Strings(us)
	return us
}

// shrinkSel greedily removes items from a valid selection while validity
// holds, trying indices in canonical order. Because validity is
// upward-closed, the fixed point is a globally minimal valid set.
func (e *Engine) shrinkSel(probe func(template.Solution) bool, empty template.Solution, items []taggedPred, sel []int) []int {
	out := append([]int(nil), sel...)
	for i := 0; i < len(out); {
		if len(out) == 1 {
			break // the empty set was already probed invalid
		}
		if e.Stop != nil && e.Stop() {
			break
		}
		trial := make([]int, 0, len(out)-1)
		trial = append(trial, out[:i]...)
		trial = append(trial, out[i+1:]...)
		if probe(negSolutionOf(empty, items, trial)) {
			out = trial
		} else {
			i++
		}
	}
	return out
}

// addAtMost adds a sequential-counter (Sinz) ladder constraining at most k
// of the first n solver variables to be true. reg[i][j] reads "at least j+1
// of x_0..x_i are true"; only the forward implications are needed for an
// upper bound.
func addAtMost(s *sat.Solver, n, k int) {
	if n <= k {
		return
	}
	reg := make([][]int, n-1)
	for i := range reg {
		w := k
		if i+1 < k {
			w = i + 1
		}
		reg[i] = make([]int, w)
		for j := range reg[i] {
			reg[i][j] = s.NewVar()
		}
	}
	P := func(v int) sat.Lit { return sat.MkLit(v, false) }
	N := func(v int) sat.Lit { return sat.MkLit(v, true) }
	s.AddClause(N(0), P(reg[0][0]))
	for i := 1; i < n-1; i++ {
		s.AddClause(N(i), P(reg[i][0]))
		s.AddClause(N(reg[i-1][0]), P(reg[i][0]))
		for j := 1; j < len(reg[i]); j++ {
			s.AddClause(N(i), N(reg[i-1][j-1]), P(reg[i][j]))
			if j < len(reg[i-1]) {
				s.AddClause(N(reg[i-1][j]), P(reg[i][j]))
			}
		}
		if len(reg[i-1]) == k {
			s.AddClause(N(i), N(reg[i-1][k-1]))
		}
	}
	if len(reg[n-2]) == k {
		s.AddClause(N(n-1), N(reg[n-2][k-1]))
	}
}
