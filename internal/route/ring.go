// Package route implements the skeleton-affinity cluster router in front of
// a fleet of vs3d backends. The engine's warm-path advantage (interned
// formulas, persistent smt.Contexts, the unsat-core store — measured
// at ~100x fewer from-scratch SMT queries on warm repeats) only survives
// horizontal scale-out if requests for the same problem/skeleton
// key keep landing on the same backend. The router consistently hashes each
// request's canonical problem key (serve.ProblemKey) onto a ring of
// backends, health-checks the fleet, and fails over to the next live node
// in ring order. Requests reach backends only over VS3R (internal/rpc), and
// single requests, binary-front calls and every /v1/batch item share one
// call path (execute); HTTP is the control plane.
package route

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// ring is a consistent-hash ring over backend indices. Each backend owns a
// weight-scaled number of virtual points; a key is served by the first point
// at or after its hash. Consistent hashing keeps the keyspace→backend
// assignment stable when a node dies: only the dead node's slice rehashes
// (to its ring successors), every other backend keeps its warm working set.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // number of backends
}

type ringPoint struct {
	hash    uint64
	backend int
}

// newRing builds a ring over len(weights) backends. Backend b owns
// round(replicas × weights[b]) virtual points (minimum 1; weights ≤ 0 count
// as 1.0), so a weight-2 node owns about twice the keyspace of a weight-1
// node. Vnode names are weight-independent — vnode v of backend b hashes the
// same wherever it exists — so changing one backend's weight only moves keys
// to or from that backend: every other pair of backends keeps its ownership
// boundary, preserving their warm working sets.
func newRing(weights []float64, replicas int) *ring {
	if replicas <= 0 {
		replicas = 128
	}
	r := &ring{n: len(weights)}
	for b, w := range weights {
		if w <= 0 {
			w = 1
		}
		vnodes := int(math.Round(float64(replicas) * w))
		if vnodes < 1 {
			vnodes = 1
		}
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("backend-%d-vnode-%d", b, v)), backend: b})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// hashKey is FNV-1a 64 followed by a murmur3-style finalizer. FNV alone
// clusters similar strings (sequential vnode names, keys differing in a few
// trailing bytes end up on nearby ring positions, skewing ownership badly);
// the finalizer's avalanche spreads them uniformly. Deterministic across
// processes (unlike Go's map hash), so every router instance computes the
// same ring.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sequence returns every backend exactly once, in ring order starting from
// the key's position. sequence(key)[0] is the affinity owner; the rest is
// the deterministic failover order (the same order every router instance
// computes, so a fleet of routers agrees on where a key lands after a
// node death).
func (r *ring) sequence(key string) []int {
	out := make([]int, 0, r.n)
	if r.n == 0 {
		return out
	}
	seen := make([]bool, r.n)
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}

// owner returns the affinity owner of key.
func (r *ring) owner(key string) int {
	seq := r.sequence(key)
	if len(seq) == 0 {
		return -1
	}
	return seq[0]
}
