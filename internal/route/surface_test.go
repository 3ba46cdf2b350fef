package route

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/store"
)

// surfaceSpec is the paper's ArrayInit example: small enough to verify in
// well under a second, rich enough to touch every engine layer.
const surfaceSpec = `
program ArrayInit(array A, n) {
  i := 0;
  while loop (i < n) {
    A[i] := 0;
    i := i + 1;
  }
  assert(forall j. (0 <= j && j < n) => A[j] = 0);
}
template loop: forall j. ?v => A[j] = 0;
predicates v: j < 0, j <= 0, j > 0, j >= 0, j < i, j <= i, j > i, j >= i, j < n, j <= n, j > n, j >= n;
`

// storeVolatile are /v1/stats keys a store-backed daemon omits while their
// value is zero and whose value depends on timing in the scenario below (a
// fresh store can load in under a millisecond or not), so the golden
// comparison skips their presence; when present they must still be numbers.
var storeVolatile = map[string]bool{"store_load_millis": true}

// TestStatsSurfaceGolden pins the stats surface against
// testdata/stats_surface: the sorted JSON key paths and JSON types of
// vs3d's /v1/stats (with and without a knowledge store), of the router's
// /v1/stats and of one VerifyResponse.stats, and every # HELP / # TYPE line
// of vs3d's and vs3router's /metrics, byte for byte and in order. The
// router's fleet totals may only grow, and only by counters the registry
// declares for backends.
func TestStatsSurfaceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs verification searches")
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// A daemon without a store, fronted by a router.
	plain := httptest.NewServer(serve.New(serve.Config{ID: "golden-plain", Pool: 1}).Handler())
	defer plain.Close()
	var vr struct {
		Stats json.RawMessage `json:"stats"`
	}
	surfaceVerify(t, client, plain.URL, surfaceSpec, &vr)
	checkGolden(t, "verify_stats.golden", jsonPaths(t, vr.Stats), nil)
	checkGolden(t, "vs3d_stats.golden", jsonPaths(t, surfaceGet(t, client, plain.URL+"/v1/stats")), nil)
	checkGolden(t, "vs3d_metrics.golden", metricsMeta(surfaceGet(t, client, plain.URL+"/metrics")), nil)

	r, err := New(Config{ID: "golden-router", Backends: []string{plain.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	checkGolden(t, "router_stats.golden", jsonPaths(t, surfaceGet(t, client, front.URL+"/v1/stats")), fleetAddable())
	checkGolden(t, "router_metrics.golden", metricsMeta(surfaceGet(t, client, front.URL+"/metrics")), nil)

	// A daemon with a store, over two lifetimes. Each runs the spec (cold,
	// then replayed from its outcome), flushes, runs the spec again (a
	// replay, then a new spelling of the spec that the engine answers warm)
	// and compacts, so every store counter the scenario can move is
	// non-zero in one of them.
	dir := t.TempDir()
	for i, golden := range []string{"vs3d_stats_store.golden", "vs3d_stats_store_warm.golden"} {
		st, err := store.Open(dir, store.Options{
			Params:             core.Config{}.SMT.StoreParams(),
			FlushInterval:      time.Hour,
			DisableAutoCompact: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := httptest.NewServer(serve.New(serve.Config{ID: "golden-store", Pool: 1, Store: st}).Handler())
		surfaceVerify(t, client, d.URL, surfaceSpec, &vr)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		surfaceVerify(t, client, d.URL, surfaceSpec+strings.Repeat("\n", i), &vr)
		resp, err := client.Post(d.URL+"/v1/compact", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compact: status %d", resp.StatusCode)
		}
		checkGolden(t, golden, jsonPaths(t, surfaceGet(t, client, d.URL+"/v1/stats")), nil)
		if i == 0 {
			checkGolden(t, "vs3d_metrics_store.golden", metricsMeta(surfaceGet(t, client, d.URL+"/metrics")), nil)
		}
		d.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// fleetAddable returns the router /v1/stats lines the fleet totals may add
// beyond the golden: one per backend counter the registry declares.
func fleetAddable() map[string]bool {
	add := map[string]bool{}
	for _, k := range stats.FleetTotals {
		add[stats.Rows[k].Key+" number"] = true
	}
	return add
}

func surfaceVerify(t *testing.T, client *http.Client, base, spec string, out any) {
	t.Helper()
	body, _ := json.Marshal(serve.VerifyRequest{Spec: spec, Method: "lfp"})
	resp, err := client.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func surfaceGet(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return buf.Bytes()
}

// jsonPaths lists a JSON document's key paths with their JSON types, one
// "path type" line each, sorted. Array elements share the path "key[]";
// volatile store keys are dropped (see storeVolatile) after their type is
// checked.
func jsonPaths(t *testing.T, body []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			if path != "" {
				seen[path+" object"] = true
			}
			for k, e := range x {
				if path == "" && storeVolatile[k] {
					if _, ok := e.(float64); !ok {
						t.Errorf("%s is %T, want a number", k, e)
					}
					continue
				}
				p := k
				if path != "" {
					p = path + "." + k
				}
				walk(p, e)
			}
		case []any:
			seen[path+" array"] = true
			for _, e := range x {
				walk(path+"[]", e)
			}
		case string:
			seen[path+" string"] = true
		case float64:
			seen[path+" number"] = true
		case bool:
			seen[path+" bool"] = true
		case nil:
			seen[path+" null"] = true
		}
	}
	walk("", v)
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return lines
}

// metricsMeta returns the # HELP and # TYPE lines of a /metrics body, in
// the order they were written.
func metricsMeta(body []byte) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "# ") {
			lines = append(lines, sc.Text())
		}
	}
	return lines
}

// checkGolden compares got with testdata/stats_surface/name. Lines in
// addable may appear in got beyond the golden; every golden line must
// appear, in order.
func checkGolden(t *testing.T, name string, got []string, addable map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "stats_surface", name))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	var kept []string
	for _, l := range got {
		if !addable[l] || contains(want, l) {
			kept = append(kept, l)
		}
	}
	if strings.Join(kept, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s drifted from its golden:\n%s", name, lineDiff(want, kept))
	}
}

func contains(ls []string, l string) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// lineDiff renders the lines only one side has.
func lineDiff(want, got []string) string {
	var b strings.Builder
	for _, l := range want {
		if !contains(got, l) {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range got {
		if !contains(want, l) {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	if b.Len() == 0 {
		b.WriteString("(same lines, different order)\n")
	}
	return b.String()
}
