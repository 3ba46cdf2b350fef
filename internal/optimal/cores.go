// Engine-global store of unsat cores extracted by predicate-set consistency
// probes. A core proven inconsistent in one search keeps killing the same
// sublattice in every later search over the same domain, so the store is
// shared across OptimalNegativeSolutions calls and across workers: it is
// striped into independently locked shards (keyed by the unknown the core
// belongs to, which is also where contention splits naturally), and bounded
// per shard with age/hit-count-aware eviction instead of the former silent
// global cap.
package optimal

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/store"
)

// coreShards is the number of independently locked stripes of the store.
const coreShards = 16

// maxStoredCores bounds the total number of stored cores across all shards.
const maxStoredCores = 1024

// coreShardCap is the per-shard entry bound; hitting it evicts the
// least-useful entry (fewest hits, oldest insertion) rather than dropping
// the new core.
const coreShardCap = maxStoredCores / coreShards

type CoreStore struct {
	shards  [coreShards]coreShard
	seq     atomic.Uint64 // global insertion clock, for age-aware eviction
	evicted atomic.Int64

	// know, when attached, is the on-disk knowledge base behind the
	// in-memory shards: every inserted core is written behind in portable
	// form (predicates as store.FormulaKey strings), which also makes
	// eviction lossless — an evicted core stays on disk and can be
	// re-promoted by a later search. portable holds cores loaded from the
	// store that no search has resolved into interned predicates yet; a
	// portable core cannot become a bitmask until a search's item universe
	// supplies the actual formulas behind its keys, so resolution happens
	// lazily inside masks.
	know     atomic.Pointer[store.Store]
	pmu      sync.Mutex
	portable []store.Core
	warmHits atomic.Int64 // portable cores promoted into a search's universe
}

// Attach connects the on-disk knowledge base: persisted portable cores are
// loaded for lazy promotion, and every future add is written behind. The
// first attach wins; re-attaching the same store from other engines sharing
// this CoreStore is a no-op, so pooled sessions do not duplicate the load.
func (cs *CoreStore) Attach(know *store.Store) {
	if cs == nil || know == nil {
		return
	}
	if !cs.know.CompareAndSwap(nil, know) {
		return
	}
	cs.pmu.Lock()
	cs.portable = append(cs.portable, know.Cores()...)
	cs.pmu.Unlock()
}

// NumWarmCores returns how many persisted cores were promoted from portable
// form into a live search's bitmask space.
func (cs *CoreStore) NumWarmCores() int64 { return cs.warmHits.Load() }

// predKey returns the portable identity of a core item's predicate. It is
// recomputed rather than memoized: a memo keyed by *logic.IFormula would
// live as long as the (process-wide, shared) core store and pin every
// predicate it ever keyed against the weak interner.
func predKey(p *logic.IFormula) string { return store.FormulaKey(p.Formula()) }

// persist writes one inserted core behind in portable form.
func (cs *CoreStore) persist(items []coreItem) {
	know := cs.know.Load()
	if know == nil {
		return
	}
	preds := make([]string, len(items))
	for i, it := range items {
		preds[i] = predKey(it.pred)
	}
	know.AppendCore(store.Core{Unknown: items[0].unknown, Preds: preds})
}

// NewCoreStore returns an empty store. One store may be shared by several
// Engines (via Engine.ShareCores): all its methods are internally
// synchronized, and cores are keyed by interned predicate identity, which is
// process-global, so cores learned by one engine prune every sharer's
// searches.
func NewCoreStore() *CoreStore { return &CoreStore{} }

type coreShard struct {
	mu      sync.Mutex
	entries []coreEntry
}

type coreEntry struct {
	items []coreItem
	seq   uint64 // insertion time on the store's clock
	hits  int64  // times the core was handed to a search that could use it
}

// shardOf stripes by the unknown of the core's first item: cores over the
// same unknown (the only ones that can collide or deduplicate against each
// other) always land in the same shard.
func (cs *CoreStore) shardOf(items []coreItem) *coreShard {
	u := items[0].unknown
	h := uint32(2166136261)
	for i := 0; i < len(u); i++ {
		h ^= uint32(u[i])
		h *= 16777619
	}
	return &cs.shards[h%coreShards]
}

// add persists one inconsistent (unknown, predicate-set) combination and
// reports whether an older entry was evicted to make room. Duplicate cores
// are dropped. Inserted cores are also written behind to the attached
// knowledge store, so in-memory eviction never loses a core for good.
func (cs *CoreStore) add(items []coreItem) (evicted bool) {
	inserted, evicted := cs.insert(items)
	if inserted {
		cs.persist(items)
	}
	return evicted
}

// insert is add's in-memory body.
func (cs *CoreStore) insert(items []coreItem) (inserted, evicted bool) {
	if len(items) == 0 {
		return false, false
	}
	sh := cs.shardOf(items)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range sh.entries {
		if sameCore(sh.entries[i].items, items) {
			return false, false
		}
	}
	e := coreEntry{items: items, seq: cs.seq.Add(1)}
	if len(sh.entries) < coreShardCap {
		sh.entries = append(sh.entries, e)
		return true, false
	}
	// Evict the entry with the fewest hits, breaking ties toward the oldest:
	// cores that never pruned anything age out first.
	victim := 0
	for i := 1; i < len(sh.entries); i++ {
		v, c := &sh.entries[victim], &sh.entries[i]
		if c.hits < v.hits || (c.hits == v.hits && c.seq < v.seq) {
			victim = i
		}
	}
	sh.entries[victim] = e
	cs.evicted.Add(1)
	return true, true
}

func sameCore(a, b []coreItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// masks maps every stored core that is fully expressible in the given item
// universe into that universe's bitmask space, bumping the hit count of each
// returned core (a core a search can use is a core worth keeping). Portable
// cores loaded from the knowledge store are resolved against the universe
// here — the first search whose items carry all of a portable core's
// predicate keys promotes it into the in-memory shards and its own mask set.
func (cs *CoreStore) masks(indexOf map[coreItem]int, width int) []bitmask {
	cs.promotePortable(indexOf)
	var out []bitmask
	for s := range cs.shards {
		sh := &cs.shards[s]
		sh.mu.Lock()
		for i := range sh.entries {
			ent := &sh.entries[i]
			m := newBitmask(width)
			ok := true
			for _, it := range ent.items {
				j, present := indexOf[it]
				if !present {
					ok = false
					break
				}
				m[j/64] |= 1 << uint(j%64)
			}
			if ok {
				ent.hits++
				out = append(out, m)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// promotePortable resolves warm-loaded portable cores against a search's item
// universe. A core whose (unknown, predicate-key) pairs all appear in the
// universe is promoted: inserted into the in-memory shards (where this and
// every later search will pick it up through the shard scan) and removed
// from the portable list. Unresolvable cores stay portable for later
// universes. Promotion happens before the shard scan precisely so the
// promoted cores are produced by it, never twice.
func (cs *CoreStore) promotePortable(indexOf map[coreItem]int) {
	cs.pmu.Lock()
	defer cs.pmu.Unlock()
	if len(cs.portable) == 0 {
		return
	}
	inv := make(map[string]coreItem, len(indexOf))
	for it := range indexOf {
		inv[it.unknown+"\x00"+predKey(it.pred)] = it
	}
	kept := cs.portable[:0]
	for _, pc := range cs.portable {
		items := make([]coreItem, 0, len(pc.Preds))
		ok := true
		for _, pk := range pc.Preds {
			it, present := inv[pc.Unknown+"\x00"+pk]
			if !present {
				ok = false
				break
			}
			items = append(items, it)
		}
		if !ok {
			kept = append(kept, pc)
			continue
		}
		// insert, not add: the core came from the store, writing it back
		// would only burn a dedup check.
		cs.insert(items)
		cs.warmHits.Add(1)
	}
	cs.portable = kept
}

// NumEvicted returns how many stored cores were evicted to admit newer ones.
func (cs *CoreStore) NumEvicted() int64 { return cs.evicted.Load() }
