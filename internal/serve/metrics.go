package serve

import (
	"bytes"
	"errors"
	"net/http"
	"time"

	"repro/internal/promtext"
	"repro/internal/stats"
	"repro/internal/store"
)

// values reads every vs3d row of the stats registry: the server's own
// counters, the engine counters summed over all pooled sessions, and the
// server's and the store's gauges.
func (s *Server) values() stats.Values {
	v := s.ctr.Load()
	for _, sess := range s.sessions {
		sv := sess.v.Engine().S.Counters().Load()
		v.Add(&sv)
	}
	draining := s.draining.Load()
	v.SetBool(stats.Up, !draining)
	v.SetBool(stats.Draining, draining)
	v[stats.Uptime] = time.Since(s.started).Seconds()
	v[stats.Pool] = float64(s.cfg.Pool)
	v[stats.QueueCapacity] = float64(s.cfg.Queue)
	v[stats.Queued] = float64(s.fq.queued())
	v[stats.ClientsQueued] = float64(s.fq.clientsWaiting())
	v[stats.ProblemsCached] = float64(s.problems.Len())
	if fn := s.rpcStats.Load(); fn != nil {
		conns, streams, requests, cancels := (*fn)()
		v[stats.RPCConns], v[stats.RPCStreams] = float64(conns), float64(streams)
		v[stats.RPCRequests], v[stats.RPCCancels] = float64(requests), float64(cancels)
	}
	v.SetBool(stats.StoreEnabled, s.cfg.Store != nil)
	if s.cfg.Store != nil {
		storeValues(&v, s.cfg.Store.Stats())
	}
	return v
}

// storeValues fills the registry's Store rows from the store's health and
// size accounting (statsBody reads the digest generation together with the
// digest itself).
func storeValues(v *stats.Values, ss store.Stats) {
	v.SetBool(stats.StoreColdStart, ss.ColdStart)
	v[stats.StoreLoadMillis] = float64(ss.LoadMillis)
	v[stats.StoreLoadedSearches] = float64(ss.LoadedSearches)
	v[stats.StoreAppended] = float64(ss.Appended)
	v[stats.StoreDeduped] = float64(ss.Deduped)
	v[stats.StoreDropped] = float64(ss.Dropped)
	v[stats.StoreQueueDepth] = float64(ss.QueueDepth)
	v[stats.StoreFlushes] = float64(ss.Flushes)
	v[stats.StoreFlushErrors] = float64(ss.FlushErrors)
	v[stats.StoreFlushRetries] = float64(ss.FlushRetries)
	v[stats.StoreCompactions] = float64(ss.Compactions)
	v[stats.StoreCompactErrors] = float64(ss.CompactErrors)
	v[stats.StoreReclaimedBytes] = float64(ss.ReclaimedBytes)
	v[stats.StoreLogBytes] = float64(ss.LogBytes)
	v[stats.StoreLiveBytes] = float64(ss.LiveBytes)
}

// statsBody assembles GET /v1/stats: every vs3d row of the registry plus
// the server's identity, its advertised rpc address, the store's
// solved-outcome digest (which the router's store-aware placement reads)
// and the sum of every finished request's stats object.
func (s *Server) statsBody() map[string]any {
	v := s.values()
	s.mu.Lock()
	body := map[string]any{"server_id": s.cfg.ID, "collector": s.agg}
	s.mu.Unlock()
	if addr := s.rpcAddr.Load(); addr != nil && *addr != "" {
		body["rpc_addr"] = *addr
	}
	if st := s.cfg.Store; st != nil {
		digest, gen := st.OutcomeDigest()
		v[stats.StoreDigestGen] = float64(gen)
		if digest != "" {
			body["store_digest"] = digest
		}
	}
	v.PutJSON(body, stats.Daemon)
	return body
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.statsBody())
}

// handleMetrics renders the same rows as /v1/stats in Prometheus text
// format so a stock scraper can watch a backend without a JSON exporter.
// Metric names are stable API; the router exposes its own families on top
// of these.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	v := s.values()
	pw := promtext.New()
	stats.WriteMetrics(pw, stats.Reading{Surface: stats.Daemon, V: &v, Labels: []string{"server", s.cfg.ID}})
	var buf bytes.Buffer
	_, _ = pw.WriteTo(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
