package lia

import "repro/internal/stats"

// LinChecker decides truth assignments of a fixed atom set containing
// non-difference constraints: the general-LIA analogue of DiffChecker. Both
// polarities of every atom are gcd-tightened once, at registration, and
// every check runs a Fourier–Motzkin elimination over the current
// assignment in one reused fmState, so a warmed checker allocates only the
// conflicts it returns.
//
// SetProbe narrows a check to the atoms one probe actually mentions: a
// persistent SMT context accumulates atoms across every probe of its
// lifetime, and running the elimination over that cumulative set would make
// each check more expensive than a one-probe instance's (and spend theory
// conflicts repairing atoms the probe does not constrain). With a probe
// subset active, checks see exactly the per-probe systems a one-probe
// instance sees. The atom set may grow via Extend; atom indices are
// append-only, so they stay valid across growth and SetProbe changes.
//
// A LinChecker is single-goroutine, like the smt.Context that owns it.
type LinChecker struct {
	vars     *Vars
	pos, neg []Form // tightened polarity forms by atom index
	all      []int  // 0..Len()-1, the default probe
	probe    []int  // active atom subset (aliases all when unrestricted)
	probeAll bool

	ctr   *stats.Counters // counts elims and FMCapHits
	elims stats.Counter   // the row each elimination run counts in

	fm fmState // the elimination engine, its buffers reused check to check
}

// NewLinChecker preprocesses the atoms (each taken as form ≤ 0 with its
// integer negation as the false polarity), all over vars, which the checker
// keeps: its eliminations break ties by variable name. Unlike
// NewDiffChecker it accepts every linear atom set. Each elimination run
// counts one in ctr's row elims; ctr may be nil.
func NewLinChecker(vars *Vars, atoms []Form, ctr *stats.Counters, elims stats.Counter) *LinChecker {
	c := &LinChecker{vars: vars, ctr: ctr, elims: elims, probeAll: true}
	c.Extend(atoms)
	return c
}

// Extend appends newly interned atoms to the checker's universe. New atoms
// join the active probe only when it is the unrestricted default.
func (c *LinChecker) Extend(atoms []Form) {
	for _, a := range atoms {
		p, n := a.Clone(), a.Negate()
		p.K, n.K = tighten(p.T, p.K), tighten(n.T, n.K)
		c.pos = append(c.pos, p)
		c.neg = append(c.neg, n)
		c.all = append(c.all, len(c.all))
	}
	if c.probeAll {
		c.probe = c.all
	}
}

// SetProbe fixes the atom subset subsequent Check calls decide: only the
// listed atoms are conjoined. nil restores the unrestricted default (all
// atoms). The slice is retained, not copied; the caller must not mutate it
// until the next SetProbe.
func (c *LinChecker) SetProbe(idxs []int) {
	if idxs == nil {
		c.probe, c.probeAll = c.all, true
	} else {
		c.probe, c.probeAll = idxs, false
	}
}

// Len returns the number of registered atoms.
func (c *LinChecker) Len() int { return len(c.pos) }

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
	// Constant constraints are decided immediately, in atom order.
	for _, i := range c.probe {
		if l := c.form(i, assign[i]); l.IsConst() && l.K > 0 {
			return Result{Sat: false, Conflict: []int{i}}
		}
	}
	st := &c.fm
	st.reset(c.vars)
	for _, i := range c.probe {
		dep := [1]int32{int32(i)}
		if conflict := st.add(c.form(i, assign[i]), dep[:]); conflict != nil {
			return Result{Sat: false, Conflict: conflict}
		}
	}
	st.seedVars()
	c.ctr.Add(c.elims, 1)
	res := st.run()
	if res.Truncated {
		c.ctr.Add(stats.FMCapHits, 1)
	}
	return res
}
