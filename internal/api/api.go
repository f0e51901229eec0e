// Package api is VAP's presentation-facing logic layer: "RESTful APIs are
// implemented to exchange JSON-formatted data between client and server"
// (paper §2.2). It exposes the catalog, time series, dimension reduction,
// brushed pattern profiles, shift-pattern flow maps, server-rendered SVG
// views, and a Server-Sent-Events stream for the near-real-time demo.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"vap/internal/core"
	"vap/internal/frontend"
	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/stream"
)

// Server wires the analyzer to HTTP handlers. All expensive results
// (embeddings, density maps) are memoized by the analyzer's execution
// engine, keyed by store data version plus canonical parameters, so
// brushing (which hits /api/patterns repeatedly) and repeated /view/
// renders of an unchanged dataset never recompute t-SNE or KDE, while any
// ingest invalidates stale entries precisely.
type Server struct {
	an  *core.Analyzer
	fc  *frontend.Core
	hub *stream.Hub
	cfg Config

	writeTimeout time.Duration // per-chunk /api/query write deadline: queryWriteTimeout
}

// Config tunes the HTTP front door. The zero value selects the defaults.
type Config struct {
	// HandlerTimeout bounds one request's handler work; a /api/query
	// request's X-VAP-Deadline may tighten it. <= 0 selects 120s.
	HandlerTimeout time.Duration
	// MaxIngestBytes caps one /api/ingest request body; beyond it the
	// request fails with 413 and the skip counts of the work already
	// applied. <= 0 selects 1 GiB.
	MaxIngestBytes int64
}

func (c *Config) defaults() {
	if c.HandlerTimeout <= 0 {
		c.HandlerTimeout = 120 * time.Second
	}
	if c.MaxIngestBytes <= 0 {
		c.MaxIngestBytes = 1 << 30
	}
}

// TenantHeader names the request's tenant for admission control;
// absent means govern.DefaultTenant.
const TenantHeader = "X-VAP-Tenant"

// NewServer returns a server over the analyzer with default Config. hub
// may be nil if the streaming endpoint is unused.
func NewServer(an *core.Analyzer, hub *stream.Hub) *Server {
	return NewServerWith(an, hub, Config{})
}

// NewServerWith returns a server with explicit front-door configuration.
func NewServerWith(an *core.Analyzer, hub *stream.Hub, cfg Config) *Server {
	cfg.defaults()
	return &Server{an: an, fc: frontend.NewCore(an), hub: hub, cfg: cfg, writeTimeout: queryWriteTimeout}
}

// Core exposes the protocol-agnostic query core the HTTP codec runs on —
// the same instance a wire-protocol server over the same analyzer should
// share.
func (s *Server) Core() *frontend.Core { return s.fc }

// HandlerTimeout returns the effective per-request handler timeout after
// defaulting, so a co-hosted wire server can bound statements identically.
func (s *Server) HandlerTimeout() time.Duration { return s.cfg.HandlerTimeout }

// analysis wraps an analysis or view handler: it hands the handler the
// request's query parameters to read once, and a request context that
// carries the tenant header, stamped for admission control, and is bounded
// by the configured handler timeout.
func (s *Server) analysis(h func(http.ResponseWriter, *http.Request, *params)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(govern.WithTenant(r.Context(), r.Header.Get(TenantHeader)), s.cfg.HandlerTimeout)
		defer cancel()
		h(w, r.WithContext(ctx), newParams(r))
	}
}

// writeGovErr maps the admission controller's typed rejections onto the
// HTTP taxonomy — the classification itself lives in frontend.MapError,
// shared with the wire server — and reports whether it handled err.
func writeGovErr(w http.ResponseWriter, err error) bool {
	switch frontend.MapError(err).Kind {
	case frontend.KindCost, frontend.KindShed:
		writeStmtErr(w, err)
		return true
	}
	return false
}

// writeAnalysisErr answers a failed typical-pattern, flow-map, density or
// series computation through the statement taxonomy (frontend.MapError):
// what the request itself got wrong is a 400, an expired or cancelled
// context a 504, any other fault a 500 — a worker panic's stack being
// logged here, once.
func writeAnalysisErr(w http.ResponseWriter, err error) {
	frontend.LogWorkerPanic(err)
	writeStmtErr(w, err)
}

// Routes registers all endpoints on a new mux.
func (s *Server) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/health", s.handleHealth)
	mux.HandleFunc("/api/customers", s.handleCustomers)
	mux.HandleFunc("/api/series", s.analysis(s.handleSeries))
	mux.HandleFunc("/api/reduce", s.analysis(s.handleReduce))
	mux.HandleFunc("/api/patterns", s.analysis(s.handlePatterns))
	mux.HandleFunc("/api/flow", s.analysis(s.handleFlow))
	mux.HandleFunc("/api/ingest", s.handleIngest)
	mux.HandleFunc("/api/stats", s.handleStats)
	mux.HandleFunc("/api/stats/series", s.handleSeriesStats)
	mux.HandleFunc("/api/admin/snapshot", s.handleAdminSnapshot)
	mux.HandleFunc("/api/exec", s.handleExec)
	mux.HandleFunc("/api/query", s.handleQuery)
	mux.HandleFunc("/api/stream", s.handleStream)
	mux.HandleFunc("/view/map.svg", s.analysis(s.handleMapSVG))
	mux.HandleFunc("/view/series.svg", s.analysis(s.handleSeriesSVG))
	mux.HandleFunc("/view/scatter.svg", s.analysis(s.handleScatterSVG))
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

// --- helpers ---------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "service": "vap"})
}

// dataVersion assembles the two-level version stamp handlers attach to
// responses: the store-wide mutation counter plus the O(shards) global
// fingerprint over the per-shard versions.
func (s *Server) dataVersion() stream.DataVersion {
	st := s.an.Store()
	return stream.DataVersion{Global: st.Version(), Fingerprint: st.GlobalFingerprint()}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.an.Store().Stats()
	rec := s.an.Store().Recovery()
	first, last, ok := s.an.Store().TimeBounds()
	var snapAge int64 = -1 // -1: no snapshot has completed in this process
	if st.LastSnapshotUnix > 0 {
		snapAge = time.Now().Unix() - st.LastSnapshotUnix
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"meters":           st.Meters,
		"samples":          st.Samples,
		"compressed_bytes": st.CompressedBytes,
		"raw_bytes":        st.RawBytes,
		"compression":      ratio(st.RawBytes, st.CompressedBytes),
		"shards":           st.Shards,
		"data_from":        first,
		"data_to":          last,
		"has_data":         ok,
		"data_version":     s.dataVersion(),
		// Durability: live WAL footprint (0/0 for in-memory stores) and
		// how stale the latest snapshot is.
		"wal_segments":          st.WALSegments,
		"wal_bytes":             st.WALBytes,
		"last_snapshot_unix":    st.LastSnapshotUnix,
		"last_snapshot_age_sec": snapAge,
		// Rollup tiers: per-resolution bucket counts and byte footprint
		// (empty when the store was opened with rollups disabled).
		"rollups": st.Rollups,
		// Recovery: how long the last Open took and its snapshot/WAL
		// breakdown, so restart regressions are visible, not inferred.
		"last_recovery_ms": rec.TotalMS,
		"recovery":         rec,
		// Governance: per-tenant admission counters, live gauges, and the
		// queue-wait histograms.
		"governance": s.an.Gov().Snapshot(),
	})
}

// handleSeriesStats returns the per-series statistics the cost-based VQL
// planner reads (sample/block counts, time bounds, compressed footprint,
// version), filtered by the standard selection parameters (ids, zone,
// bbox). Stats come from append-time chunk metadata, so the endpoint never
// decodes data — it is cheap enough to poll.
func (s *Server) handleSeriesStats(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	sel := p.selection()
	if p.answered(w) {
		return
	}
	ids, err := s.an.Engine().ResolveMeters(sel)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	stats := s.an.Store().SeriesStats(ids)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"count":        len(stats),
		"series":       stats,
		"data_version": s.dataVersion(),
	})
}

// Snapshot persists the store without blocking writers, retiring the WAL
// segments it covers, and announces it to stream subscribers when the
// server has a hub. It returns the live WAL footprint afterwards.
func (s *Server) Snapshot() (segs int, bytes int64, err error) {
	st := s.an.Store()
	if err := st.Snapshot(); err != nil {
		return 0, 0, err
	}
	segs, bytes = st.WALStats()
	if s.hub != nil {
		s.hub.Publish(stream.Event{
			Kind:        stream.KindSnapshot,
			WALSegments: segs,
			WALBytes:    bytes,
			DataVersion: s.dataVersion(),
		})
	}
	return segs, bytes, nil
}

// handleAdminSnapshot runs Snapshot on demand (POST).
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("api: snapshot trigger is POST-only"))
		return
	}
	start := time.Now()
	segs, bytes, err := s.Snapshot()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, store.ErrNoDurability) {
			status = http.StatusConflict // in-memory store: nothing to snapshot
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":             "ok",
		"duration_ms":        time.Since(start).Milliseconds(),
		"wal_segments":       segs,
		"wal_bytes":          bytes,
		"last_snapshot_unix": s.an.Store().LastSnapshotUnix(),
		"data_version":       s.dataVersion(),
	})
}

// handleExec reports the execution engine's cache and parallelism state:
// the operational view of "is the interactive path actually hitting the
// memoized embeddings".
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	es := s.an.ExecStats()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"workers":        s.an.Exec().Workers(),
		"cache_entries":  s.an.Exec().Len(),
		"cache_hits":     es.Hits,
		"cache_misses":   es.Misses,
		"computes":       es.Computes,
		"dedups":         es.Dedups,
		"evictions":      es.Evictions,
		"shards":         s.an.Store().NumShards(),
		"shard_versions": s.an.Store().ShardVersions(),
		"data_version":   s.dataVersion(),
	})
}

func ratio(raw, comp int) float64 {
	if comp == 0 {
		return 0
	}
	return float64(raw) / float64(comp)
}

func (s *Server) handleCustomers(w http.ResponseWriter, r *http.Request) {
	p := newParams(r)
	sel := p.selection()
	if p.answered(w) {
		return
	}
	ids, err := s.an.Engine().ResolveMeters(sel)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	cat := s.an.Store().Catalog()
	out := make([]store.Meter, 0, len(ids))
	for _, id := range ids {
		if m, ok := cat.Get(id); ok {
			out = append(out, m)
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"count": len(out), "customers": out})
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request, p *params) {
	id := p.int("id", 0, math.MinInt64)
	sel := p.selection()
	g := p.granularity(query.GranDaily)
	fn := query.AggFunc(p.str("agg", string(query.AggMean)))
	p.need(id != 0, "id parameter required")
	if p.answered(w) {
		return
	}
	buckets, err := s.an.MeterSeries(r.Context(), id, sel, g, fn)
	if err != nil {
		writeAnalysisErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "granularity": g, "buckets": buckets})
}

// typical reads the typical-pattern view's parameters after any the
// handler read, and computes (or returns the memoized) view; when it cannot
// it answers the request itself and reports false. The view's caching and
// its method, metric and granularity defaults are the analyzer's.
func (s *Server) typical(w http.ResponseWriter, r *http.Request, p *params) (*core.TypicalView, bool) {
	cfg := core.TypicalConfig{
		Selection:       p.selection(),
		Method:          reduce.Method(p.str("method", "")),
		Metric:          reduce.Metric(p.str("metric", "")),
		Granularity:     p.granularity(""),
		Seed:            p.int("seed", 42, math.MinInt64),
		UseDailyProfile: p.str("profile", "", "daily") == "daily",
	}
	if p.answered(w) {
		return nil, false
	}
	v, err := s.an.TypicalPatterns(r.Context(), cfg)
	if err != nil {
		writeAnalysisErr(w, err)
	}
	return v, err == nil
}

func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request, p *params) {
	if v, ok := s.typical(w, r, p); ok {
		writeJSON(w, http.StatusOK, v)
	}
}

// handlePatterns applies a brush (bx0,by0,bx1,by1 in [0,1]) to the reduced
// view and returns the group profile — the S1 interaction.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request, p *params) {
	b, _ := p.brush()
	v, ok := s.typical(w, r, p)
	if !ok {
		return
	}
	ids, rowIdx, err := v.SelectBrush(b)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	prof, err := v.Profile(rowIdx)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"selected": len(ids), "profile": prof})
}

// handleFlow answers the flow map between t1 and t2; core and kde default
// an absent grid, kernel or OD mode and refuse one they do not know.
func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request, p *params) {
	cfg := core.ShiftConfig{
		Selection:         p.selection(),
		Granularity:       p.granularity(query.Gran4Hourly),
		IntensityQuantile: p.float("quantile", 0, 0, 1),
		GridCols:          int(p.int("cols", 0, 1)),
		GridRows:          int(p.int("rows", 0, 1)),
		Kernel:            kde.Kernel(p.str("kernel", "")),
		OD:                core.ODMode(p.str("od", "")),
	}
	cfg.T1, cfg.T2 = p.anchors(true)
	if p.answered(w) {
		return
	}
	res, err := s.an.ShiftPatternsCtx(r.Context(), cfg)
	if err != nil {
		writeAnalysisErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleStream serves Server-Sent Events with the live density summaries.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("api: streaming not enabled"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("api: streaming unsupported by connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ch, cancel := s.hub.Subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			payload, _ := json.Marshal(e)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, payload)
			fl.Flush()
		}
	}
}
