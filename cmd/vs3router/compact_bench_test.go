package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/store"
)

// duplicateStoreLog rewrites dir's knowledge log as header + body×copies —
// the duplicate-heavy shape a long-lived store reaches through rewrite churn
// — and returns the new log size.
func duplicateStoreLog(t *testing.T, dir string, copies int) int64 {
	t.Helper()
	path := filepath.Join(dir, "knowledge.log")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.IndexByte(b, '\n') + 1 // the header record stays single
	if i <= 0 || i >= len(b) {
		t.Fatalf("store log %s has no body to duplicate", path)
	}
	var out bytes.Buffer
	out.Write(b[:i])
	for c := 0; c < copies; c++ {
		out.Write(b[i:])
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return int64(out.Len())
}

// copyStoreLog clones a closed store directory's log into a fresh dir, so two
// benchmark arms can start from byte-identical warmed stores.
func copyStoreLog(t *testing.T, src string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(src, "knowledge.log"))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, "knowledge.log"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// backendProbe is the slice of a vs3d /v1/stats body the compaction tests
// read.
type backendProbe struct {
	Queries        int64 `json:"smt_queries"`
	Probes         int64 `json:"assumption_probes"`
	FMScratch      int64 `json:"fm_scratch"`
	FMIncremental  int64 `json:"fm_incremental"`
	OutcomeHits    int64 `json:"store_outcome_hits"`
	LogBytes       int64 `json:"store_log_bytes"`
	Compactions    int64 `json:"store_compactions"`
	ReclaimedBytes int64 `json:"store_reclaimed_bytes"`
}

func (p backendProbe) work() int64 { return p.Queries + p.Probes + p.FMScratch + p.FMIncremental }

func probeStats(t *testing.T, base string) backendProbe {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p backendProbe
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompactSmoke is `make compact-smoke`: generational log compaction end
// to end over the HTTP surface. A store-backed backend solves the smoke
// corpus; its log is duplicated 6x (simulated churn); a second lifetime
// compacts it via POST /v1/compact while serving and must keep answering
// with identical verdicts and zero fresh work; a third lifetime restarts on
// the compacted generation and replays everything from the store.
func TestCompactSmoke(t *testing.T) {
	dir := t.TempDir()
	corpus := load.SmokeCorpus()

	// Lifetime 1: solve the corpus cold, writing outcomes behind.
	ts1 := startBackend(t, serve.Config{ID: "compact-1", Store: openStore(t, dir)}, nil)
	for _, it := range corpus {
		resp, vr := verifyVia(t, ts1.hts.URL, it.Spec, it.Method)
		if resp.StatusCode != http.StatusOK || vr.Proved != it.WantProved {
			t.Fatalf("%s cold: status=%d proved=%v", it.Name, resp.StatusCode, vr.Proved)
		}
	}
	ts1.stop()
	dupBytes := duplicateStoreLog(t, dir, 6)

	// Lifetime 2: compact on demand while serving.
	ts2 := startBackend(t, serve.Config{ID: "compact-2", Store: openStore(t, dir)}, nil)
	if got := probeStats(t, ts2.hts.URL).LogBytes; got != dupBytes {
		t.Fatalf("store_log_bytes = %d, want the duplicated %d", got, dupBytes)
	}
	resp, err := http.Post(ts2.hts.URL+"/v1/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr serve.CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/compact: status %d", resp.StatusCode)
	}
	if cr.Compactions != 1 || cr.ReclaimedBytes <= 0 {
		t.Fatalf("compact response: %+v", cr)
	}
	if cr.LogBytes*3 > dupBytes {
		t.Errorf("compaction shrank the log %d -> %d bytes, want >=3x", dupBytes, cr.LogBytes)
	}
	fi, err := os.Stat(filepath.Join(dir, "knowledge.log"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != cr.LogBytes {
		t.Errorf("on-disk log is %d bytes, response says %d", fi.Size(), cr.LogBytes)
	}
	// The just-compacted, still-serving backend answers from the store.
	pre := probeStats(t, ts2.hts.URL)
	for _, it := range corpus {
		resp, vr := verifyVia(t, ts2.hts.URL, it.Spec, it.Method)
		if resp.StatusCode != http.StatusOK || vr.Proved != it.WantProved || !vr.FromStore {
			t.Fatalf("%s after compact: status=%d proved=%v from_store=%v",
				it.Name, resp.StatusCode, vr.Proved, vr.FromStore)
		}
	}
	if d := probeStats(t, ts2.hts.URL).work() - pre.work(); d != 0 {
		t.Errorf("replay after live compaction did %d fresh work, want 0", d)
	}
	ts2.stop()

	// Lifetime 3: a restart over the compacted generation is fully warm.
	ts3 := startBackend(t, serve.Config{ID: "compact-3", Store: openStore(t, dir)}, nil)
	for _, it := range corpus {
		resp, vr := verifyVia(t, ts3.hts.URL, it.Spec, it.Method)
		if resp.StatusCode != http.StatusOK || vr.Proved != it.WantProved || !vr.FromStore {
			t.Fatalf("%s on compacted store: status=%d proved=%v from_store=%v",
				it.Name, resp.StatusCode, vr.Proved, vr.FromStore)
		}
	}
	if p := probeStats(t, ts3.hts.URL); p.work() != 0 || p.OutcomeHits < int64(len(corpus)) {
		t.Errorf("restart on compacted store: work=%d outcome_hits=%d, want 0 and >=%d",
			p.work(), p.OutcomeHits, len(corpus))
	}
	ts3.stop()

	// A storeless backend refuses the endpoint.
	plain := startBackend(t, serve.Config{ID: "no-store"}, nil)
	resp, err = http.Post(plain.hts.URL+"/v1/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("POST /v1/compact without a store: status %d, want 409", resp.StatusCode)
	}
}

// movedCorpusKeys counts the distinct corpus problem keys whose ring owner
// changes between the two weight vectors. Ring vnodes hash by backend index,
// not URL, so the count is deterministic for a fixed corpus.
func movedCorpusKeys(t *testing.T, corpus []load.Item, oldW, newW []float64) int {
	t.Helper()
	owner := func(w []float64) map[string]string {
		r, err := route.New(route.Config{
			Backends:       []string{"http://ring-probe-0", "http://ring-probe-1"},
			Weights:        w,
			HealthInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		m := map[string]string{}
		for _, it := range corpus {
			k := serve.ProblemKey(it.Spec)
			m[k] = r.Owner(k)
		}
		return m
	}
	before, after := owner(oldW), owner(newW)
	moved := 0
	for k, o := range before {
		if after[k] != o {
			moved++
		}
	}
	return moved
}

// routerDigestGens reads each backend's store_digest_gen from the router's
// /v1/stats.
func routerDigestGens(t *testing.T, base string) []uint64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		StoreHits int64 `json:"route_store_hits"`
		Backends  []struct {
			Gen uint64 `json:"store_digest_gen"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	gens := make([]uint64, len(body.Backends))
	for i, b := range body.Backends {
		gens[i] = b.Gen
	}
	return gens
}

func routerStoreHits(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		StoreHits int64 `json:"route_store_hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.StoreHits
}

// TestCompactBench is `make bench-compact`: the compaction and store-aware
// routing gate. Part A duplicates a warmed store's log 6x and gates a >=3x
// on-disk shrink from compaction, with a warm restart over the compacted generation doing zero
// from-scratch work at identical verdicts. Part B warms a two-backend fleet,
// reweights the hash ring (moving keys off the nodes that solved them), and
// replays the corpus through store-aware and affinity-only routing over
// byte-identical store copies: store-aware placement must redo strictly less
// from-scratch work, again at identical verdicts. Gates compare wall-clock
// fleet runs, so the test only runs under `make bench-compact`
// (VS3_FLEET_BENCH=1) and skips under plain `go test ./...`.
func TestCompactBench(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction benchmark is not a -short test")
	}
	skipUnlessFleetBench(t, "bench-compact")
	corpus := load.DefaultCorpus()
	distinct := map[string]bool{}
	for _, it := range corpus {
		distinct[serve.ProblemKey(it.Spec)] = true
	}

	// ---- Part A: duplicate-heavy compaction + warm restart ----
	const copies = 6
	dirA := t.TempDir()
	tsA := startBackend(t, serve.Config{ID: "bench-compact-cold", Store: openStore(t, dirA)}, nil)
	benchArm(t, tsA.hts.URL, len(corpus))
	tsA.stop()
	beforeBytes := duplicateStoreLog(t, dirA, copies)

	st, err := store.Open(dirA, store.Options{Params: serve.Config{}.Core.SMT.StoreParams()})
	if err != nil {
		t.Fatal(err)
	}
	reclaimed, err := st.Compact()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dirA, "knowledge.log"))
	if err != nil {
		t.Fatal(err)
	}
	afterBytes := fi.Size()
	shrink := float64(beforeBytes) / float64(afterBytes)
	t.Logf("compaction: log %d -> %d bytes (%.1fx), reclaimed %d", beforeBytes, afterBytes, shrink, reclaimed)
	if shrink < 3 {
		t.Errorf("compaction shrank the duplicate-heavy log only %.1fx, want >=3x", shrink)
	}

	tsW := startBackend(t, serve.Config{ID: "bench-compact-warm", Store: openStore(t, dirA)}, nil)
	warm := benchArm(t, tsW.hts.URL, len(corpus))
	warmHits := probeStats(t, tsW.hts.URL).OutcomeHits
	tsW.stop()
	t.Logf("warm restart on the compacted store: work=%d, %d outcome hits", warm.Work(), warmHits)
	if warm.Work() != 0 {
		t.Errorf("warm restart on the compacted store did %d from-scratch work, want 0", warm.Work())
	}

	// ---- Part B: store-aware vs affinity-only after a ring reweight ----
	warmWeights := []float64{1, 1}
	newWeights := []float64{4, 1}
	if moved := movedCorpusKeys(t, corpus, warmWeights, newWeights); moved == 0 {
		t.Fatal("reweight moved no corpus keys; widen the weight change")
	} else {
		t.Logf("reweight %v -> %v moves %d of %d distinct keys", warmWeights, newWeights, moved, len(distinct))
	}

	// Warm a two-backend fleet under the old weights, then flush its stores.
	d1, d2 := t.TempDir(), t.TempDir()
	b1 := startBackend(t, serve.Config{ID: "fleet-1", Store: openStore(t, d1)}, nil)
	b2 := startBackend(t, serve.Config{ID: "fleet-2", Store: openStore(t, d2)}, nil)
	warmBase, _, stopWarm := startRouter(t, route.Config{
		Backends: []string{b1.hts.URL, b2.hts.URL}, Weights: warmWeights, Policy: route.Affinity,
	})
	benchArm(t, warmBase, 2*len(corpus))
	stopWarm()
	b1.stop()
	b2.stop()

	// Each arm replays the corpus over byte-identical copies of the warmed
	// stores behind the reweighted ring.
	runArm := func(name string, storeAware bool) (load.Result, int64) {
		c1 := startBackend(t, serve.Config{ID: name + "-1", Store: openStore(t, copyStoreLog(t, d1))}, nil)
		defer c1.stop()
		c2 := startBackend(t, serve.Config{ID: name + "-2", Store: openStore(t, copyStoreLog(t, d2))}, nil)
		defer c2.stop()
		base, _, stopR := startRouter(t, route.Config{
			Backends: []string{c1.hts.URL, c2.hts.URL}, Weights: newWeights,
			Policy: route.Affinity, StoreAware: storeAware,
			HealthInterval: 50 * time.Millisecond,
		})
		defer stopR()
		if storeAware {
			deadline := time.Now().Add(10 * time.Second)
			for {
				gens := routerDigestGens(t, base)
				if len(gens) == 2 && gens[0] > 0 && gens[1] > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("router never fetched both store digests: %v", gens)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		res := benchArm(t, base, len(corpus))
		return res, routerStoreHits(t, base)
	}
	aware, storeHits := runArm("aware", true)
	affOnly, _ := runArm("affinity", false)
	t.Logf("store-aware:   work=%d (q=%d fm=%d+%d), %d digest-preferred placements",
		aware.Work(), aware.SMTQueries, aware.FMScratch, aware.FMIncremental, storeHits)
	t.Logf("affinity-only: work=%d (q=%d fm=%d+%d)",
		affOnly.Work(), affOnly.SMTQueries, affOnly.FMScratch, affOnly.FMIncremental)
	if affOnly.Work() == 0 {
		t.Error("affinity-only arm redid no work after the reweight; the comparison is vacuous")
	}
	if aware.Work() >= affOnly.Work() {
		t.Errorf("store-aware work %d not below affinity-only %d after the reweight",
			aware.Work(), affOnly.Work())
	}
	if storeHits == 0 {
		t.Error("store-aware arm counted zero digest-preferred placements")
	}
}
