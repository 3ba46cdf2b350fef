package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/promtext"
	"repro/internal/stats"
)

// values reads the registry's Router rows.
func (r *Router) values() stats.Values {
	v := r.ctr.Load()
	v[stats.RouterUptime] = time.Since(r.started).Seconds()
	v.SetBool(stats.RouterStoreAware, r.cfg.StoreAware)
	for _, b := range r.backends {
		if c := b.rpcClient(); c != nil {
			v[stats.RouterRPCConns] += float64(c.OpenConns())
		}
	}
	return v
}

// values reads the registry's Backend rows for one backend.
func (b *backend) values() stats.Values {
	v := b.ctr.Load()
	v.SetBool(stats.BackendHealthy, b.healthy.Load())
	v[stats.BackendWeight] = b.weight
	if c := b.rpcClient(); c != nil {
		v[stats.BackendRPCConns] = float64(c.OpenConns())
	}
	v[stats.BackendDigestGen] = float64(b.digestGen.Load())
	return v
}

// statsBody assembles the router's GET /v1/stats: its Router rows, one row
// per backend (its Backend rows plus identity and transport), and fleet
// totals — every vs3d counter in stats.FleetTotals summed over the live
// backends' /v1/stats, polled in parallel and bounded by the health timeout
// so a hung backend cannot stall the endpoint. The totals keep the vs3d
// keys, so fleet tools (cmd/vs3load) read a router and a backend alike.
func (r *Router) statsBody(ctx context.Context) map[string]any {
	body := map[string]any{"router_id": r.cfg.ID, "policy": r.cfg.Policy}
	v := r.values()
	v.PutJSON(body, stats.Front)
	rows := make([]map[string]any, len(r.backends))
	totals := make([]stats.Values, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		row := map[string]any{"url": b.url, "proto": "none"}
		if id := b.id(); id != "" {
			row["server_id"] = id
		}
		if b.rpcClient() != nil {
			row["proto"] = "rpc"
		}
		bv := b.values()
		bv.PutJSON(row, stats.FrontBackend)
		rows[i] = row
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			totals[i] = r.backendValues(ctx, b)
		}(i, b)
	}
	wg.Wait()
	body["backends"] = rows
	var sum stats.Values
	for i := range totals {
		sum.Add(&totals[i])
	}
	sum.PutFleetJSON(body)
	return body
}

// backendValues fetches one backend's /v1/stats; a failed fetch reads zero.
func (r *Router) backendValues(ctx context.Context, b *backend) stats.Values {
	tctx, cancel := context.WithTimeout(ctx, r.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, b.url+"/v1/stats", nil)
	if err != nil {
		return stats.Values{}
	}
	res, err := r.client.Do(req)
	if err != nil {
		return stats.Values{}
	}
	defer func() {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}()
	var body map[string]any
	if res.StatusCode != http.StatusOK || json.NewDecoder(res.Body).Decode(&body) != nil {
		return stats.Values{}
	}
	return stats.ParseJSON(body, stats.Daemon)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, r.statsBody(req.Context()))
}

// handleMetrics renders the router's rows in Prometheus text format: its
// Router rows plus one series per backend of each Backend row, labelled by
// backend URL. Backend-internal counters are scraped from each backend's
// own /metrics, not re-exported here.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	v := r.values()
	readings := []stats.Reading{{Surface: stats.Front, V: &v, Labels: []string{"router", r.cfg.ID}}}
	for _, b := range r.backends {
		bv := b.values()
		readings = append(readings, stats.Reading{Surface: stats.FrontBackend, V: &bv, Labels: []string{"backend", b.url}})
	}
	pw := promtext.New()
	stats.WriteMetrics(pw, readings...)
	var buf bytes.Buffer
	_, _ = pw.WriteTo(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
