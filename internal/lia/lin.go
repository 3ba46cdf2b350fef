package lia

import "repro/internal/stats"

// Checker decides many truth assignments of one fixed (but growable) atom
// set; DiffChecker and LinChecker both implement it, and the SMT layer's
// DPLL(T) theory check calls whichever fits the atom set.
type Checker interface {
	Check(assign []bool) Result
}

// maxCubes bounds a LinChecker's persisted conflict-cube store; beyond it
// the least-useful cube (fewest hits, oldest) is evicted for each newcomer.
const maxCubes = 1024

// cube is one persisted refutation: the conjunction selecting atom idx[k]
// with polarity val[k] is integer-infeasible. A cube recorded in one probe
// refutes every later probe whose assignment agrees on those atoms, without
// re-running the elimination.
type cube struct {
	idx  []int // sorted atom indices
	val  []bool
	hits int64
	seq  int64 // insertion order, for age-aware eviction
}

// LinChecker decides truth assignments of a fixed atom set containing
// non-difference constraints: the general-LIA analogue of DiffChecker. It is
// built once per persistent SMT context and keeps two kinds of state across
// checks:
//
//   - Preprocessing: both polarities of every atom are negated and
//     gcd-tightened once at registration instead of per check.
//   - Conflict cubes: every refutation's dependency set — the (atom,
//     polarity) pairs the Fourier–Motzkin refutation actually used — is
//     persisted, keyed by that stable atom subset. A later probe whose
//     assignment agrees on a cube's atoms is refuted by table lookup, with
//     the exact conflict set preserved, so unsat cores keep driving
//     map-solver blocking without an elimination run.
//
// SetProbe narrows a check to the atoms one probe actually mentions: the
// owning context accumulates atoms across every probe of its lifetime, and
// running the elimination over that cumulative set would make each check more
// expensive than the from-scratch path it replaces (and spend theory
// conflicts repairing atoms the probe does not constrain). With a probe
// subset active, checks see exactly the per-probe systems the fresh path
// sees, and only cubes lying inside the subset fire — so learned conflicts
// stay facts the fresh path could also have derived.
//
// Checks that miss the cube store fall through to a full elimination over
// the current assignment (the same fmState engine FM.Check uses, hence the
// same verdicts), and record the resulting refutation for the next probe.
// The atom set may grow via Extend: cube indices are stable because atom
// indices are append-only, so cubes survive growth and SetProbe changes.
//
// A LinChecker is single-goroutine, like the smt.Context that owns it.
type LinChecker struct {
	vars     *Vars
	pos, neg []Form // tightened polarity forms by atom index
	all      []int  // 0..Len()-1, the default probe
	probe    []int  // active atom subset (aliases all when unrestricted)
	inProbe  []bool // dense membership bitmap for the active probe
	probeAll bool

	cubes   []cube
	cubeSeq int64
	ctr     *stats.Counters // counts FMIncremental, FMCubeHits and FMCapHits

	fm fmState // the elimination engine, its buffers reused check to check
}

// NewLinChecker preprocesses the atoms (each taken as form ≤ 0 with its
// integer negation as the false polarity), all over vars, which the checker
// keeps: its eliminations break ties by variable name. Unlike
// NewDiffChecker it accepts every linear atom set. ctr may be nil.
func NewLinChecker(vars *Vars, atoms []Form, ctr *stats.Counters) *LinChecker {
	c := &LinChecker{vars: vars, ctr: ctr, probeAll: true}
	c.Extend(atoms)
	return c
}

// Extend appends newly interned atoms to the checker's universe. Persisted
// conflict cubes survive: they reference atom indices, which are stable
// under growth. New atoms join the active probe only when it is the
// unrestricted default.
func (c *LinChecker) Extend(atoms []Form) {
	for _, a := range atoms {
		p, n := a.Clone(), a.Negate()
		p.K, n.K = tighten(p.T, p.K), tighten(n.T, n.K)
		c.pos = append(c.pos, p)
		c.neg = append(c.neg, n)
		c.all = append(c.all, len(c.all))
		c.inProbe = append(c.inProbe, c.probeAll)
	}
	if c.probeAll {
		c.probe = c.all
	}
}

// SetProbe fixes the atom subset subsequent Check calls decide: only the
// listed atoms are conjoined, and only cubes lying entirely inside the
// subset can answer a check. nil restores the unrestricted default (all
// atoms). The slice is retained, not copied; the caller must not mutate it
// until the next SetProbe.
func (c *LinChecker) SetProbe(idxs []int) {
	for _, i := range c.probe {
		c.inProbe[i] = false
	}
	if idxs == nil {
		c.probe, c.probeAll = c.all, true
	} else {
		c.probe, c.probeAll = idxs, false
	}
	for _, i := range c.probe {
		c.inProbe[i] = true
	}
}

// Len returns the number of registered atoms.
func (c *LinChecker) Len() int { return len(c.pos) }

// NumCubes returns the number of persisted conflict cubes.
func (c *LinChecker) NumCubes() int { return len(c.cubes) }

func (c *LinChecker) form(i int, positive bool) Form {
	if positive {
		return c.pos[i]
	}
	return c.neg[i]
}

// Check decides the conjunction over the active probe subset, selecting each
// atom's positive form where assign[i] is true and its negation where false.
// Conflict indices are atom indices (valid positions of assign). len(assign)
// must equal Len().
func (c *LinChecker) Check(assign []bool) Result {
	// Constant constraints are decided immediately, in atom order (the same
	// pre-pass Check performs on its cons slice).
	for _, i := range c.probe {
		if l := c.form(i, assign[i]); l.IsConst() && l.K > 0 {
			return Result{Sat: false, Conflict: []int{i}}
		}
	}
	// Persisted refutations: a cube inside the probe subset whose atoms all
	// agree with the current assignment refutes it outright.
	if res, hit := c.lookupCube(assign); hit {
		return res
	}
	// Full elimination over the selected polarity forms.
	st := &c.fm
	st.reset(c.vars)
	for _, i := range c.probe {
		dep := [1]int32{int32(i)}
		if conflict := st.add(c.form(i, assign[i]), dep[:]); conflict != nil {
			return Result{Sat: false, Conflict: conflict}
		}
	}
	st.seedVars()
	c.ctr.Add(stats.FMIncremental, 1)
	res := st.run()
	if res.Truncated {
		c.ctr.Add(stats.FMCapHits, 1)
	}
	if !res.Sat {
		c.learn(res.Conflict, assign)
	}
	return res
}

func (c *LinChecker) lookupCube(assign []bool) (Result, bool) {
outer:
	for i := range c.cubes {
		cb := &c.cubes[i]
		for k, idx := range cb.idx {
			if idx >= len(assign) || !c.inProbe[idx] || assign[idx] != cb.val[k] {
				continue outer
			}
		}
		cb.hits++
		c.ctr.Add(stats.FMCubeHits, 1)
		return Result{Sat: false, Conflict: append([]int(nil), cb.idx...)}, true
	}
	return Result{}, false
}

// learn persists one refutation's dependency cube. Duplicates cannot occur:
// an existing cube matching the assignment would have answered the check.
func (c *LinChecker) learn(conflict []int, assign []bool) {
	c.cubeSeq++
	cb := cube{
		idx: append([]int(nil), conflict...),
		val: make([]bool, len(conflict)),
		seq: c.cubeSeq,
	}
	for k, idx := range conflict {
		cb.val[k] = assign[idx]
	}
	if len(c.cubes) < maxCubes {
		c.cubes = append(c.cubes, cb)
		return
	}
	// Evict the cube with the fewest hits, breaking ties toward the oldest:
	// cubes that never refuted anything age out first.
	victim := 0
	for i := 1; i < len(c.cubes); i++ {
		v, cand := &c.cubes[victim], &c.cubes[i]
		if cand.hits < v.hits || (cand.hits == v.hits && cand.seq < v.seq) {
			victim = i
		}
	}
	c.cubes[victim] = cb
}
