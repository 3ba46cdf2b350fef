// Package optimal implements the core operation of the paper (§3, Fig. 2):
// finding all optimal assignments of predicate conjunctions to the unknowns
// of a template formula so that the formula is valid. Negative unknowns get
// minimal sets (adding predicates preserves validity), positive unknowns get
// maximal sets (deleting predicates preserves validity).
//
// OptimalNegativeSolutions enumerates the subset lattice with a SAT map
// solver (mapsolver.go) under a configurable depth bound (the paper
// observed no solution ever needs more than 4 predicates per negative
// unknown); the paper's bounded BFS stays as the reference the
// differential tests compare it against. OptimalSolutions follows Fig. 2:
// seed with single-predicate choices for the positive unknowns, then grow
// maximal solutions with MakeOptimal/Merge. Merged candidates are re-verified with the SMT solver,
// so every returned solution truly validates the formula.
package optimal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/logic"
	"repro/internal/memo"
	"repro/internal/par"
	"repro/internal/smt"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/template"
)

// Options holds the engine's differential-test hook.
type Options struct {
	// CrossCheck, when non-nil, makes every group search run both the
	// map-guided enumeration and the reference BFS and hands both result
	// lists to the callback (the map result is the one used).
	// Differential-test hook; leave nil in production.
	CrossCheck func(phi logic.Formula, mapSols, bfsSols []template.Solution)
}

// Engine runs optimal-solution searches against one SMT solver.
type Engine struct {
	// S is the SMT validity oracle.
	S *smt.Solver
	// MaxDepth bounds the total number of predicates across all negative
	// unknowns in one solution (default 4, the paper's observed maximum).
	MaxDepth int
	// MaxSolutions bounds how many optimal negative solutions one call
	// returns (default 64; the paper never observed more than 6). Both
	// enumerations run to exhaustion within MaxDepth and truncate the
	// canonically ordered result, so the bound is a safety valve against
	// degenerate vocabularies, not a search cutoff.
	MaxSolutions int
	// Stop, when non-nil, is polled inside the search loops; returning
	// true abandons the call with whatever has been found so far.
	Stop func() bool
	// Stats optionally records Figure 6/7 histograms.
	Stats *stats.Collector
	// Opts holds the differential-test hook.
	Opts Options

	// fillers caches one compiled template.Filler per interned base
	// formula: the search fills the same φ with hundreds of candidate
	// solutions, and the iterative algorithms re-visit the same VCs across
	// rounds and (parallel) workers. Bounded (fillerCap).
	fillers *memo.Table[*logic.IFormula, *template.Filler]

	// consOnce/consCtx lazily hold one incremental context dedicated to
	// predicate-set consistency probes: every candidate predicate gets a
	// selector literal there, and failed conjunctions come back with unsat
	// cores that prune the lattice search.
	consOnce sync.Once
	consCtx  *smt.Context

	// consMemo caches consistency verdicts per interned predicate-set
	// conjunction. The searches re-test the same small per-unknown sets
	// across groups, rounds, and workers; the verdict (and its core) never
	// changes, so one probe serves all of them. Bounded (consMemoCap).
	consMemo *memo.Table[*logic.IFormula, *consVerdict]

	// cores accumulates (unknown, predicate-set) combinations proven
	// inconsistent, shared across searches and workers: a core killed in one
	// round keeps killing the same sublattice in every later round (as
	// bitmask pruning in negBFS, as blocking clauses in negMap).
	cores *CoreStore

	// know is the optional on-disk knowledge base: consistency verdicts and
	// whole group-search results are answered from it across process
	// lifetimes and written behind when decided without a fired Stop.
	know *store.Store
}

// consVerdict is one memoized predicate-set consistency verdict. The caller
// that installs it decides the set and closes done; callers that find it
// in flight wait on done, so one set is decided once however many parallel
// jobs miss on it together.
type consVerdict struct {
	done chan struct{}
	sat  bool
	core []logic.Formula
}

// coreItem identifies one (unknown, interned predicate) choice; it doubles
// as the deduplication key of the search item universes and the persisted
// representation of unsat cores.
type coreItem struct {
	unknown string
	pred    *logic.IFormula
}

// The engine's memos are bounded like the solver's retained state, so a
// long-lived serving session stops growing with every fresh problem. Each
// capacity sits above the largest DefaultSuite cell's need (324 fillers,
// 4 274 consistency verdicts), so it binds only across many problems; an
// evicted entry is recomputed to the same value.
const (
	fillerCap   = 4096
	consMemoCap = 8192
)

// New returns an engine with default bounds and a private core store.
func New(s *smt.Solver) *Engine {
	return &Engine{
		S: s, MaxDepth: 4, MaxSolutions: 64, cores: NewCoreStore(),
		fillers:  memo.New[*logic.IFormula, *template.Filler](fillerCap),
		consMemo: memo.New[*logic.IFormula, *consVerdict](consMemoCap),
	}
}

// ShareCores replaces the engine's core store, typically with one shared by
// a pool of engines so an inconsistency proven by any of them prunes the
// others' lattice searches. Must be called before the engine is used.
func (e *Engine) ShareCores(cs *CoreStore) {
	if cs != nil {
		e.cores = cs
	}
}

// AttachKnowledge connects the on-disk knowledge base: predicate-set
// consistency verdicts warm-load from it, and the engine's core store gains
// its persisted portable cores. Must be called before the engine is used
// (after ShareCores, so the shared store is the one attached).
func (e *Engine) AttachKnowledge(k *store.Store) {
	if k == nil {
		return
	}
	e.know = k
	e.cores.Attach(k)
}

// NumConsStoreHits returns how many consistency probes were answered from
// the knowledge store instead of being decided.
func (e *Engine) NumConsStoreHits() int64 { return e.S.Counters()[stats.StoreConsHits].Load() }

// NumWarmCores returns how many persisted cores this engine's searches
// promoted from the knowledge store.
func (e *Engine) NumWarmCores() int64 { return e.S.Counters()[stats.StoreWarmCores].Load() }

func (e *Engine) maxDepth() int {
	if e.MaxDepth <= 0 {
		return 4
	}
	return e.MaxDepth
}

func (e *Engine) maxSolutions() int {
	if e.MaxSolutions <= 0 {
		return 64
	}
	return e.MaxSolutions
}

// Filler returns the engine's compiled filler for φ, building and caching
// it on first use. Safe for concurrent use.
func (e *Engine) Filler(phi logic.Formula) *template.Filler {
	n := logic.Intern(phi)
	if v, ok := e.fillers.Load(n); ok {
		return v
	}
	v, _ := e.fillers.LoadOrStore(n, template.NewFiller(n.Formula()))
	return v
}

// valid instantiates φ with σ and asks the SMT solver, routed through the
// context keyed by the unfilled φ (the skeleton shared by every candidate
// fill).
func (e *Engine) valid(phi logic.Formula, sigma template.Solution) bool {
	fl := e.Filler(phi)
	fill := fl.SolutionFill(sigma)
	return e.S.ContextFor(logic.Intern(phi)).ValidFill(fl.Fill(fill), fill)
}

// consistencyContext returns the engine's shared context for predicate-set
// consistency probes.
func (e *Engine) consistencyContext() *smt.Context {
	e.consOnce.Do(func() { e.consCtx = e.S.NewContext() })
	return e.consCtx
}

// NumCorePruned returns how many lattice candidates were rejected because a
// previously extracted unsat core applied to them.
func (e *Engine) NumCorePruned() int64 { return e.S.Counters()[stats.CorePruned].Load() }

// NumCoreEvicted returns how many stored cores this engine's inserts evicted
// from the (possibly shared) core store to make room.
func (e *Engine) NumCoreEvicted() int64 { return e.S.Counters()[stats.CoreEvicted].Load() }

// storeCoreStats persists a freshly extracted inconsistent (unknown,
// predicate-set) combination for reuse by later searches over the same
// domain, and records it in the stats collector.
func (e *Engine) storeCoreStats(unknown string, core []logic.Formula) {
	items := make([]coreItem, len(core))
	for i, p := range core {
		items[i] = coreItem{unknown: unknown, pred: logic.Intern(p)}
	}
	if e.cores.add(items) {
		e.S.Counters().Add(stats.CoreEvicted, 1)
	}
	if e.Stats != nil {
		e.Stats.RecordCoreSize(len(core))
	}
}

// taggedPred is one (unknown, predicate) choice in the BFS space. key is
// pred.String(), rendered once per search so the lattice walk adds items to
// PredSets without re-serializing them.
type taggedPred struct {
	unknown string
	pred    logic.Formula
	key     string
}

// itemUniverse returns the deduplicated (unknown, predicate) items of a
// search in deterministic order, with each item's index by interned
// identity.
func itemUniverse(unknowns []string, q template.Domain) ([]taggedPred, map[coreItem]int) {
	var items []taggedPred
	indexOf := map[coreItem]int{}
	for _, u := range unknowns {
		for _, p := range q[u] {
			k := coreItem{unknown: u, pred: logic.Intern(p)}
			if _, dup := indexOf[k]; dup {
				continue
			}
			indexOf[k] = len(items)
			items = append(items, taggedPred{unknown: u, pred: p, key: p.String()})
		}
	}
	return items, indexOf
}

// addTo adds the item to its unknown's set in s.
func (it taggedPred) addTo(s template.Solution) {
	s[it.unknown] = s[it.unknown].AddKeyed(it.pred, it.key)
}

// OptimalNegativeSolutions returns all minimal solutions of φ over Q when
// every unknown of φ is negative. Each returned solution has an entry
// (possibly empty) for every unknown of φ. The search is truncated at
// MaxDepth total predicates, matching the paper's bounded BFS.
//
// Before searching, φ is split into independent conjuncts (implication and
// universal quantification distribute over conjunction) and grouped by
// shared unknowns; the BFS runs per group and the results are combined,
// which is exact and exponentially cheaper than a joint search.
func (e *Engine) OptimalNegativeSolutions(phi logic.Formula, q template.Domain) []template.Solution {
	return e.negativeSolutions(phi, q, e.negSearch)
}

// negativeSolutions splits φ into unknown-connected groups, enumerates each
// with search, and combines the results.
func (e *Engine) negativeSolutions(phi logic.Formula, q template.Domain, search func(logic.Formula, template.Domain) []template.Solution) []template.Solution {
	parts := splitConj(logic.Intern(phi).Simplified().Formula())
	groups, fixed := groupByUnknowns(parts)
	if len(fixed) > 0 && !e.S.Valid(logic.Conj(fixed...)) {
		return nil
	}
	if len(groups) == 0 {
		return []template.Solution{{}}
	}
	combined := []template.Solution{{}}
	for _, g := range groups {
		sols := search(g, q)
		if len(sols) == 0 {
			e.recordNegSizes(nil)
			return nil
		}
		var next []template.Solution
		for _, c := range combined {
			for _, s := range sols {
				next = append(next, c.Merge(s))
				if len(next) >= e.maxSolutions() {
					break
				}
			}
			if len(next) >= e.maxSolutions() {
				break
			}
		}
		combined = next
	}
	e.recordNegSizes(combined)
	return combined
}

// splitConj distributes implication, universal quantification and
// conjunction to produce the finest top-level conjunction of φ.
func splitConj(f logic.Formula) []logic.Formula {
	switch f := f.(type) {
	case logic.And:
		var out []logic.Formula
		for _, g := range f.Fs {
			out = append(out, splitConj(g)...)
		}
		return out
	case logic.Implies:
		cs := splitConj(f.B)
		if len(cs) == 1 {
			return []logic.Formula{f}
		}
		out := make([]logic.Formula, len(cs))
		for i, c := range cs {
			out[i] = logic.Imp(f.A, c)
		}
		return out
	case logic.Forall:
		cs := splitConj(f.Body)
		if len(cs) == 1 {
			return []logic.Formula{f}
		}
		out := make([]logic.Formula, len(cs))
		for i, c := range cs {
			out[i] = logic.All(f.Vars, c)
		}
		return out
	}
	return []logic.Formula{f}
}

// groupByUnknowns partitions conjuncts into connected components by shared
// unknowns; conjuncts with no unknowns are returned separately.
func groupByUnknowns(parts []logic.Formula) (groups []logic.Formula, fixed []logic.Formula) {
	type comp struct {
		fs       []logic.Formula
		unknowns map[string]bool
	}
	var comps []*comp
	for _, p := range parts {
		us := logic.Unknowns(p)
		if len(us) == 0 {
			fixed = append(fixed, p)
			continue
		}
		cur := &comp{fs: []logic.Formula{p}, unknowns: map[string]bool{}}
		for _, u := range us {
			cur.unknowns[u] = true
		}
		var merged []*comp
		for _, c := range comps {
			shares := false
			for u := range c.unknowns {
				if cur.unknowns[u] {
					shares = true
					break
				}
			}
			if shares {
				cur.fs = append(cur.fs, c.fs...)
				for u := range c.unknowns {
					cur.unknowns[u] = true
				}
			} else {
				merged = append(merged, c)
			}
		}
		comps = append(merged, cur)
	}
	for _, c := range comps {
		groups = append(groups, logic.Conj(c.fs...))
	}
	return groups, fixed
}

// group is one unknown-connected search: its formula, the deduplicated
// (unknown, predicate) item universe in deterministic order, and what the
// probe both enumerators and the replay share. With distinct items, every
// lattice point is exactly identified by its set of item indices.
type group struct {
	phi      logic.Formula
	empty    template.Solution
	unknowns []string // empty's unknowns, sorted
	items    []taggedPred
	indexOf  map[coreItem]int

	// The probe's compiled inputs: the filler and the incremental context
	// keyed by the unfilled group formula, and per item its unknown's index
	// in the filler's unknowns, its interned predicate and its rank by key
	// among its unknown's items (a fill conjoins predicates in key order,
	// as template.PredSet does).
	fl   *template.Filler
	ctx  *smt.Context
	unk  []int
	pred []*logic.IFormula
	rank []int
}

func (e *Engine) newGroup(phi logic.Formula, q template.Domain) *group {
	unknowns := logic.Unknowns(phi)
	g := &group{phi: phi, empty: template.Solution{}}
	for _, u := range unknowns {
		g.empty[u] = template.NewPredSet()
	}
	g.unknowns = slices.Clone(unknowns)
	slices.Sort(g.unknowns)
	g.unknowns = slices.Compact(g.unknowns)
	g.items, g.indexOf = itemUniverse(unknowns, q)
	g.fl = e.Filler(phi)
	g.ctx = e.S.ContextFor(logic.Intern(phi))
	unkIdx := make(map[string]int, len(g.fl.Unknowns()))
	for i, u := range g.fl.Unknowns() {
		unkIdx[u] = i
	}
	g.unk = make([]int, len(g.items))
	g.pred = make([]*logic.IFormula, len(g.items))
	g.rank = make([]int, len(g.items))
	byKey := make([]int, len(g.items))
	for i, it := range g.items {
		g.unk[i] = unkIdx[it.unknown]
		g.pred[i] = logic.Intern(it.pred)
		byKey[i] = i
	}
	sort.Slice(byKey, func(a, b int) bool { return g.items[byKey[a]].key < g.items[byKey[b]].key })
	for r, i := range byKey {
		g.rank[i] = r
	}
	return g
}

// probe instantiates φ with the selection sel (item indices) and asks for
// validity through the group's incremental context, whose ValidSel consults
// the validity cache and the store's verdicts before solving: the selection
// goes to the context as interned predicates, which its compiled skeleton
// maps to selector assumptions, and the filled formula is built only as the
// cache key.
func (g *group) probe(sel []int) bool {
	n := len(g.fl.Unknowns())
	byUnk := make([][]int, n)
	for _, i := range sel {
		byUnk[g.unk[i]] = append(byUnk[g.unk[i]], i)
	}
	fills := make([]logic.Formula, n)
	preds := make([][]*logic.IFormula, n)
	for u, is := range byUnk {
		slices.SortFunc(is, func(a, b int) int { return g.rank[a] - g.rank[b] })
		fs := make([]logic.Formula, len(is))
		preds[u] = make([]*logic.IFormula, len(is))
		for k, i := range is {
			fs[k], preds[u][k] = g.items[i].pred, g.pred[i]
		}
		fills[u] = logic.Conj(fs...)
	}
	return g.ctx.ValidSel(g.fl.FillList(fills), preds)
}

// precheck runs the monotonicity pre-checks both enumerators share: if the
// full assignment is not valid no subset is, and if the empty assignment is
// valid it is the unique minimal solution. done reports that one of them
// settled the search.
func (g *group) precheck() (sols []template.Solution, sels [][]int, done bool) {
	full := make([]int, len(g.items))
	for i := range full {
		full[i] = i
	}
	if !g.probe(full) {
		return nil, [][]int{}, true
	}
	if g.probe(nil) {
		return []template.Solution{g.empty}, [][]int{{}}, true
	}
	return nil, nil, false
}

// searchKey names a group search in the knowledge store: a SHA-256 over the
// group formula's FormulaKey, the depth and solution bounds, and the item
// universe in order (unknown name plus the predicate key each item already
// carries), so a record can only be hit by a search over the same lattice.
func (g *group) searchKey(maxDepth, maxSolutions int) string {
	b := make([]byte, 0, 64+32*len(g.items))
	b = appendKeyString(b, store.FormulaKey(g.phi))
	b = binary.BigEndian.AppendUint64(b, uint64(maxDepth))
	b = binary.BigEndian.AppendUint64(b, uint64(maxSolutions))
	b = binary.BigEndian.AppendUint64(b, uint64(len(g.items)))
	for _, it := range g.items {
		b = appendKeyString(b, it.unknown)
		b = appendKeyString(b, it.key)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// appendKeyString appends a length-prefixed string, keeping the search-key
// encoding injective.
func appendKeyString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// searchReplayed, when non-nil, observes every group search answered from a
// persisted result. Test seam for the replay-identity sweep; nil in
// production.
var searchReplayed func(phi logic.Formula, q template.Domain, sols []template.Solution)

// negSearch enumerates the optimal negative solutions of one
// unknown-connected group through the map-solver-guided search. With a
// knowledge store attached
// (and no CrossCheck hook, which always runs both enumerators), a persisted
// result for the same search is replayed once every listed solution
// re-probes valid; otherwise the group is searched and the result, unless a
// fired Stop cut it short, replaces the record.
func (e *Engine) negSearch(phi logic.Formula, q template.Domain) []template.Solution {
	g := e.newGroup(phi, q)
	if e.know == nil || e.Opts.CrossCheck != nil {
		sols, _ := e.enumerate(g)
		return sols
	}
	key := g.searchKey(e.maxDepth(), e.maxSolutions())
	if rec, ok := e.know.Search(key); ok {
		if sols, ok := g.replay(rec); ok {
			e.S.Counters().Add(stats.SearchHits, 1)
			if searchReplayed != nil {
				searchReplayed(phi, q, sols)
			}
			return sols
		}
		e.S.Counters().Add(stats.SearchRejects, 1)
	}
	sols, sels := e.enumerate(g)
	if e.Stop == nil || !e.Stop() {
		e.know.AppendSearch(key, sels)
	}
	return sols
}

// enumerate runs the map-solver-guided search over a group (and, under a
// CrossCheck hook, the reference BFS too), returning the solutions and their
// item-index selections.
func (e *Engine) enumerate(g *group) ([]template.Solution, [][]int) {
	sols, sels := e.negMap(g)
	if e.Opts.CrossCheck != nil {
		bfs, _ := e.negBFS(g)
		e.Opts.CrossCheck(g.phi, sols, bfs)
	}
	return sols, sels
}

// replay rebuilds a persisted search result through the item universe and
// re-probes every solution valid along the search's own probe path. ok is
// false when an index is out of range or a solution fails its probe.
// Minimality is not re-checked: a stale record can cost a proof but never
// fake one (see DESIGN.md §15).
func (g *group) replay(rec [][]int) ([]template.Solution, bool) {
	sols := make([]template.Solution, len(rec))
	for i, sel := range rec {
		if len(sel) > 0 && sel[len(sel)-1] >= len(g.items) {
			return nil, false
		}
		if !g.probe(sel) {
			return nil, false
		}
		sols[i] = negSolutionOf(g.empty, g.items, sel)
	}
	return sols, true
}

// negBFS is the paper's bounded breadth-first search over one
// unknown-connected group, kept as the reference the CrossCheck hook and the
// differential tests compare the map-solver-guided search against.
func (e *Engine) negBFS(g *group) ([]template.Solution, [][]int) {
	if sols, sels, done := g.precheck(); done {
		return sols, sels
	}
	items, indexOf := g.items, g.indexOf
	// Subsumption against already-found solutions is a word-wise bitmask
	// subset test over item indices instead of per-unknown PredSet walks.
	var solutions []template.Solution
	var solMasks []bitmask
	found := func() ([]template.Solution, [][]int) {
		sols := truncate(solutions, e.maxSolutions())
		sels := make([][]int, len(sols))
		for i := range sols {
			sels[i] = solMasks[i].indices(len(items))
		}
		return sols, sels
	}
	subsumed := func(m bitmask) bool {
		for _, sm := range solMasks {
			if sm.subsetOf(m) {
				return true
			}
		}
		return false
	}
	// Unsat cores, as masks over this call's item universe: an inconsistent
	// predicate subset makes every lattice point containing it inconsistent
	// too (conjoining predicates only strengthens the set), so a single core
	// kills its whole superset sublattice without probing. Seeded with cores
	// extracted by earlier calls over the same domain.
	coreMasks := e.cores.masks(indexOf, len(items), e.S.Counters())
	coreBlocked := func(m bitmask) bool {
		for _, km := range coreMasks {
			if km.subsetOf(m) {
				e.S.Counters().Add(stats.CorePruned, 1)
				return true
			}
		}
		return false
	}
	maskOfCore := func(unknown string, core []logic.Formula) bitmask {
		m := newBitmask(len(items))
		for _, p := range core {
			i, present := indexOf[coreItem{unknown: unknown, pred: logic.Intern(p)}]
			if !present {
				return nil // core predicate outside this universe; unusable here
			}
			m[i/64] |= 1 << uint(i%64)
		}
		return m
	}

	type node struct {
		sigma template.Solution
		mask  bitmask
		last  int // last item index used, for canonical extension order
	}
	frontier := []node{{sigma: g.empty, mask: newBitmask(len(items)), last: -1}}
	for depth := 1; depth <= e.maxDepth() && len(frontier) > 0; depth++ {
		var next []node
		for _, nd := range frontier {
			if e.Stop != nil && e.Stop() {
				return found()
			}
			for i := nd.last + 1; i < len(items); i++ {
				cm := nd.mask.with(i)
				if subsumed(cm) || coreBlocked(cm) {
					continue
				}
				cand := nd.sigma.Clone()
				items[i].addTo(cand)
				// Contradictory predicate sets denote the guard "false":
				// they make the template conjunct vacuous, flood the
				// solution set, and never appear in the paper's optimal
				// sets (Example 4). Prune them and all their supersets.
				if sat, core, fresh := e.satisfiableSet(cand[items[i].unknown]); !sat {
					if len(core) > 0 {
						if km := maskOfCore(items[i].unknown, core); km != nil {
							coreMasks = append(coreMasks, km)
						}
						if fresh {
							e.storeCoreStats(items[i].unknown, core)
						}
					}
					continue
				}
				if g.probe(cm.indices(len(items))) {
					solutions = append(solutions, cand)
					solMasks = append(solMasks, cm)
					continue
				}
				next = append(next, node{sigma: cand, mask: cm, last: i})
			}
		}
		frontier = next
	}
	return found()
}

// truncate applies the MaxSolutions safety valve to a canonically ordered
// solution list.
func truncate[T any](sols []T, max int) []T {
	if len(sols) > max {
		return sols[:max]
	}
	return sols
}

// bitmask is a fixed-width bit set over negBFS item indices.
type bitmask []uint64

func newBitmask(n int) bitmask { return make(bitmask, (n+63)/64) }

// with returns a copy of m with bit i set.
func (m bitmask) with(i int) bitmask {
	c := make(bitmask, len(m))
	copy(c, m)
	c[i/64] |= 1 << uint(i%64)
	return c
}

// indices returns the set bits of m below n in increasing order.
func (m bitmask) indices(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if m[i/64]&(1<<uint(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// subsetOf reports whether every bit of m is set in o.
func (m bitmask) subsetOf(o bitmask) bool {
	for k := range m {
		if m[k]&^o[k] != 0 {
			return false
		}
	}
	return true
}

// satisfiableSet reports whether the conjunction of a predicate set has a
// model. Verdicts are memoized per interned conjunction — the searches
// re-test the same per-unknown sets across groups, rounds, and workers, and
// repeated probes were the dominant cost of the slowest cells. Misses go
// through the engine's incremental consistency context (one selector literal
// per predicate; inconsistent sets come back with an unsat core over the
// predicates), falling back to the solver's Valid cache when the context
// cannot answer exactly. Both paths agree on the verdict; only the context
// path yields cores. A miss is claimed before it is decided (the verdict
// goes into the memo in flight), and callers that meet the claim wait for
// it. fresh reports that this call performed the probe, so exactly one
// caller persists the core and records its size.
func (e *Engine) satisfiableSet(ps template.PredSet) (sat bool, core []logic.Formula, fresh bool) {
	if ps.Len() <= 1 {
		return true, nil, false
	}
	key := logic.Intern(ps.Formula())
	cv, ok := e.consMemo.Load(key)
	if !ok {
		cv, ok = e.consMemo.LoadOrStore(key, &consVerdict{done: make(chan struct{})})
	}
	if ok {
		<-cv.done
		return cv.sat, cv.core, false
	}
	defer close(cv.done)
	var skey string
	if e.know != nil {
		// Warm path: the verdict survived from an earlier lifetime. No core
		// comes with it (cores travel separately through the CoreStore's
		// portable form), which the callers already tolerate — the Valid
		// fallback below is equally core-less.
		skey = store.FormulaKey(key.Formula())
		if sat, ok := e.know.Consistency(skey); ok {
			e.S.Counters().Add(stats.StoreConsHits, 1)
			cv.sat = sat
			return cv.sat, cv.core, false
		}
		e.S.Counters().Add(stats.StoreMisses, 1)
	}
	if consistent, cr, ok := e.consistencyContext().Consistent(ps.Preds()); ok {
		cv.sat, cv.core = consistent, cr
	} else {
		cv.sat = !e.S.Valid(logic.Neg(ps.Formula()))
	}
	if e.know != nil && (e.Stop == nil || !e.Stop()) {
		// Settled without a fired Stop: safe to persist for next lifetime.
		e.know.AppendConsistency(skey, cv.sat)
	}
	return cv.sat, cv.core, true
}

func (e *Engine) recordNegSizes(sols []template.Solution) {
	if e.Stats == nil {
		return
	}
	for _, s := range sols {
		n := 0
		for _, ps := range s {
			n += ps.Len()
		}
		e.Stats.RecordNegSolutionSize(n)
	}
}

func solutionSubset(a, b template.Solution) bool {
	for u, pa := range a {
		if !pa.SubsetOf(b[u]) {
			return false
		}
	}
	return true
}

// OptimalSolutions returns optimal solutions of φ over Q (Fig. 2): maximal
// predicate sets for positive unknowns, minimal for negative. Every returned
// solution is SMT-verified to make φ valid.
func (e *Engine) OptimalSolutions(phi logic.Formula, q template.Domain) []template.Solution {
	pol, err := template.Polarities(phi)
	if err != nil {
		panic("optimal: " + err.Error())
	}
	pos, neg := template.Split(pol)
	if len(pos) == 0 {
		sols := e.OptimalNegativeSolutions(phi, q)
		e.recordOpt(sols)
		return sols
	}

	// Seed S: for each positive unknown and each single predicate choice
	// (other positives empty), find the optimal negative completions. Also
	// seed with the all-empty positive assignment.
	negDomain := template.Domain{}
	for _, n := range neg {
		negDomain[n] = q[n]
	}
	emptyPos := template.Solution{}
	for _, p := range pos {
		emptyPos[p] = template.NewPredSet()
	}

	// The seeding calls — one per (positive unknown, predicate) plus the
	// all-empty assignment — are independent searches, so they fan out
	// across GOMAXPROCS workers; results are merged in job order,
	// keeping the seed list identical to a sequential run.
	fl := e.Filler(phi)
	jobs := []template.Solution{emptyPos}
	for _, p := range pos {
		for _, pred := range q[p] {
			posPart := emptyPos.Clone()
			posPart[p] = template.NewPredSet(pred)
			jobs = append(jobs, posPart)
		}
	}
	results := make([][]template.Solution, len(jobs))
	par.ForEach(len(jobs), runtime.GOMAXPROCS(0), func(i int) {
		if e.Stop != nil && e.Stop() {
			return
		}
		phiP := fl.FillSolution(jobs[i])
		results[i] = e.OptimalNegativeSolutions(phiP, negDomain)
	})
	var seeds []template.Solution
	for i, sols := range results {
		for _, t := range sols {
			seeds = append(seeds, jobs[i].Merge(t))
		}
	}
	seeds = dedupe(seeds)
	if len(seeds) == 0 {
		e.recordOpt(nil)
		return nil
	}

	// R := {MakeOptimal(σ, S)}, then close under Merge (Fig. 2 lines 8-13).
	var r []template.Solution
	addR := func(sigma template.Solution) {
		for _, s := range r {
			if dominates(s, sigma, pos, neg) {
				return
			}
		}
		r = append(r, sigma)
	}
	for _, s := range seeds {
		addR(e.makeOptimal(phi, s, seeds, pos, neg))
	}
	r = dedupe(r)
	// inR holds the keys of r, which only grows: a solution joins it unless
	// its key is there already.
	inR := make(map[string]bool, len(r))
	for _, s := range r {
		inR[s.Key()] = true
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(r); i++ {
			for j := 0; j < len(r); j++ {
				if i == j {
					continue
				}
				m, ok := e.merge(phi, r[i], r[j], seeds, pos, neg)
				if !ok {
					continue
				}
				if inR[m.Key()] || anyDominates(r, m, pos, neg) {
					continue
				}
				opt := e.makeOptimal(phi, m, seeds, pos, neg)
				if k := opt.Key(); !inR[k] {
					inR[k] = true
					r = append(r, opt)
				}
				changed = true
			}
		}
	}
	// Keep only non-dominated, verified solutions.
	var out []template.Solution
	for i, s := range r {
		dominated := false
		for j, t := range r {
			if i != j && dominates(t, s, pos, neg) && s.Key() != t.Key() {
				dominated = true
				break
			}
		}
		if !dominated && e.valid(phi, s) {
			out = append(out, s)
		}
	}
	out = dedupe(out)
	sortSolutions(out)
	e.recordOpt(out)
	return out
}

func (e *Engine) recordOpt(sols []template.Solution) {
	if e.Stats != nil {
		e.Stats.RecordOptSolutionCount(len(sols))
	}
}

// makeOptimal greedily merges σ with compatible seeds to grow its positive
// sets (Fig. 2, MakeOptimal).
func (e *Engine) makeOptimal(phi logic.Formula, sigma template.Solution, seeds []template.Solution, pos, neg []string) template.Solution {
	for _, sp := range seeds {
		if !negSubset(sp, sigma, neg) {
			continue
		}
		if m, ok := e.merge(phi, sigma, sp, seeds, pos, neg); ok {
			sigma = m
		}
	}
	return sigma
}

// merge unions two solutions (Fig. 2, Merge): positives and negatives are
// unioned; the union is kept when its single-predicate positive projections
// are covered by seeds with no-stronger negatives, and the SMT solver
// confirms validity (the verification step makes the cover test exact).
func (e *Engine) merge(phi logic.Formula, s1, s2 template.Solution, seeds []template.Solution, pos, neg []string) (template.Solution, bool) {
	m := s1.Merge(s2)
	// Cover test: every (positive unknown, predicate) choice of m must be
	// realized by some seed whose negatives are within m's.
	for _, p := range pos {
		for _, key := range m[p].Keys() {
			found := false
			for _, sp := range seeds {
				if sp[p].Len() == 1 && sp[p].ContainsKey(key) && negSubset(sp, m, neg) {
					found = true
					break
				}
			}
			if !found {
				return nil, false
			}
		}
	}
	if !e.valid(phi, m) {
		return nil, false
	}
	return m, true
}

// negSubset reports whether a's negative sets are all within b's.
func negSubset(a, b template.Solution, neg []string) bool {
	for _, n := range neg {
		if !a[n].SubsetOf(b[n]) {
			return false
		}
	}
	return true
}

// dominates reports whether a is at least as good as b: positives no
// smaller, negatives no larger (Fig. 2, line 12).
func dominates(a, b template.Solution, pos, neg []string) bool {
	for _, p := range pos {
		if !b[p].SubsetOf(a[p]) {
			return false
		}
	}
	for _, n := range neg {
		if !a[n].SubsetOf(b[n]) {
			return false
		}
	}
	return true
}

func anyDominates(rs []template.Solution, s template.Solution, pos, neg []string) bool {
	for _, r := range rs {
		if dominates(r, s, pos, neg) {
			return true
		}
	}
	return false
}

func dedupe(rs []template.Solution) []template.Solution {
	seen := map[string]bool{}
	out := rs[:0:0]
	for _, r := range rs {
		k := r.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func sortSolutions(rs []template.Solution) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Key() < rs[j].Key() })
}
