package stats

import (
	"strings"
	"testing"

	"repro/internal/promtext"
)

// TestRegistryLint checks the table every stats surface renders from: each
// Counter has exactly one filled row; JSON keys are unique on each surface
// and Prometheus families unique overall; families carry their surface's
// prefix, counters end in _total and gauges do not; help text is non-empty.
func TestRegistryLint(t *testing.T) {
	prefix := map[Surface]string{Daemon: "vs3d_", Front: "vs3router_", FrontBackend: "vs3router_backend_"}
	keys := map[Surface]map[string]Counter{}
	metrics := map[string]Counter{}
	for k, r := range Rows {
		k := Counter(k)
		if r == (Row{}) {
			t.Errorf("counter %d has no row", k)
			continue
		}
		if r.Help == "" {
			t.Errorf("row %d (%q %q) has no help text", k, r.Key, r.Metric)
		}
		if r.Key == "" && r.Metric == "" {
			t.Errorf("row %d has neither a JSON key nor a Prometheus family", k)
		}
		if r.Show == Hidden && r.Metric != "" {
			t.Errorf("hidden row %q has a Prometheus family %q", r.Key, r.Metric)
		}
		if r.Unit == Bool && r.Kind != Gauge {
			t.Errorf("bool row %q%q is not a gauge", r.Key, r.Metric)
		}
		sf := r.Src.surface()
		if r.Key != "" {
			if keys[sf] == nil {
				keys[sf] = map[string]Counter{}
			}
			if prev, dup := keys[sf][r.Key]; dup {
				t.Errorf("JSON key %q used by rows %d and %d", r.Key, prev, k)
			}
			keys[sf][r.Key] = k
		}
		if r.Metric == "" {
			continue
		}
		if prev, dup := metrics[r.Metric]; dup {
			t.Errorf("family %q used by rows %d and %d", r.Metric, prev, k)
		}
		metrics[r.Metric] = k
		if !strings.HasPrefix(r.Metric, prefix[sf]) || (sf == Front && strings.HasPrefix(r.Metric, prefix[FrontBackend])) {
			t.Errorf("family %q does not carry its surface's prefix %q", r.Metric, prefix[sf])
		}
		if total := strings.HasSuffix(r.Metric, "_total"); total != (r.Kind == Count) {
			t.Errorf("family %q: kind %d, _total suffix %v", r.Metric, r.Kind, total)
		}
	}
}

// TestRenderRoundTrip: what PutJSON writes, ParseJSON reads back, so the
// router's fleet totals sum the same values the backends report; WriteMetrics
// emits every shown family once, in seconds for a Nanos row, and leaves out
// store rows while no store is attached.
func TestRenderRoundTrip(t *testing.T) {
	var ctr Counters
	ctr.Add(Queries, 213)
	ctr.Add(GroundTime, 2_500_000)
	ctr.Add(StoreVerdictHits, 4)
	v := ctr.Load()
	v.SetBool(StoreEnabled, true)
	v.SetBool(StoreColdStart, true)
	m := map[string]any{}
	v.PutJSON(m, Daemon)
	if m["smt_queries"] != 213.0 || m["ground_ms"] != 2.5 || m["store_enabled"] != true || m["store_verdict_hits"] != 4.0 {
		t.Errorf("PutJSON = %v", m)
	}
	if _, ok := m["store_misses"]; ok {
		t.Error("hidden row rendered")
	}
	if _, ok := m["store_cons_hits"]; ok {
		t.Error("zero store row rendered")
	}
	if back := ParseJSON(m, Daemon); back != v {
		t.Errorf("ParseJSON(PutJSON(v)) differs from v:\n%v\n%v", back, v)
	}

	v.SetBool(StoreEnabled, false)
	var b strings.Builder
	pw := promtext.New()
	WriteMetrics(pw, Reading{Surface: Daemon, V: &v, Labels: []string{"server", "x"}})
	_, _ = pw.WriteTo(&b)
	out := b.String()
	for _, want := range []string{`vs3d_smt_queries_total{server="x"} 213`, `vs3d_ground_seconds_total{server="x"} 0.0025`, "vs3d_store_enabled{server=\"x\"} 0"} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "vs3d_store_verdict_hits_total") || strings.Contains(out, "vs3router_") {
		t.Errorf("metrics render rows of a detached store or another surface:\n%s", out)
	}
}
