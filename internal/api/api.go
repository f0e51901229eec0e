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
	"net/http"
	"strconv"
	"strings"
	"time"

	"vap/internal/core"
	"vap/internal/frontend"
	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/stream"
	"vap/internal/vql"
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
}

// Config tunes the HTTP front door. The zero value selects the defaults.
type Config struct {
	// HandlerTimeout bounds one request's handler work — the single
	// configurable default that used to be hardcoded (twice) as 120s.
	// Governance query deadlines, when configured, supersede it
	// per-request with a tighter bound. <= 0 selects 120s.
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
	return &Server{an: an, fc: frontend.NewCore(an), hub: hub, cfg: cfg}
}

// Core exposes the protocol-agnostic query core the HTTP codec runs on —
// the same instance a wire-protocol server over the same analyzer should
// share.
func (s *Server) Core() *frontend.Core { return s.fc }

// HandlerTimeout returns the effective per-request handler timeout after
// defaulting, so a co-hosted wire server can bound statements identically.
func (s *Server) HandlerTimeout() time.Duration { return s.cfg.HandlerTimeout }

// analysis wraps an analysis or view handler: its request context carries
// the tenant header, stamped for admission control, and is bounded by the
// configured handler timeout.
func (s *Server) analysis(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(govern.WithTenant(r.Context(), r.Header.Get(TenantHeader)), s.cfg.HandlerTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
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

func qFloat(r *http.Request, key string, def float64) float64 {
	if v := r.URL.Query().Get(key); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

func qInt64(r *http.Request, key string, def int64) int64 {
	if v := r.URL.Query().Get(key); v != "" {
		if f, err := strconv.ParseInt(v, 10, 64); err == nil {
			return f
		}
	}
	return def
}

func qStr(r *http.Request, key, def string) string {
	if v := r.URL.Query().Get(key); v != "" {
		return v
	}
	return def
}

// parseSelection reads bbox=minLon,minLat,maxLon,maxLat, zone=..., ids=1,2,3
// and from/to (Unix seconds or a date/time string — the same literals the
// VQL time predicates accept). Malformed values are a 400, never a silent
// fall-back to the default selection.
func parseSelection(r *http.Request) (query.Selection, error) {
	var sel query.Selection
	if bbox := r.URL.Query().Get("bbox"); bbox != "" {
		parts := strings.Split(bbox, ",")
		if len(parts) != 4 {
			return sel, fmt.Errorf("api: bbox wants 4 comma-separated numbers")
		}
		var vals [4]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return sel, fmt.Errorf("api: bad bbox component %q", p)
			}
			vals[i] = f
		}
		// Shared with the VQL bbox predicate: finite, in lon/lat range,
		// min <= max (so a NaN or swapped-corner box cannot silently
		// select nothing).
		if err := vql.ValidBBox(vals[0], vals[1], vals[2], vals[3]); err != nil {
			return sel, fmt.Errorf("api: bad bbox: %w", err)
		}
		box := geo.NewBBox(
			geo.Point{Lon: vals[0], Lat: vals[1]},
			geo.Point{Lon: vals[2], Lat: vals[3]})
		sel.BBox = &box
	}
	if zone := r.URL.Query().Get("zone"); zone != "" {
		sel.Zone = store.ZoneType(zone)
	}
	if ids := r.URL.Query().Get("ids"); ids != "" {
		for _, p := range strings.Split(ids, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil {
				return sel, fmt.Errorf("api: bad meter id %q", p)
			}
			sel.MeterIDs = append(sel.MeterIDs, id)
		}
	}
	var err error
	if sel.From, err = qTime(r, "from"); err != nil {
		return sel, err
	}
	if sel.To, err = qTime(r, "to"); err != nil {
		return sel, err
	}
	if sel.From != 0 && sel.To != 0 && sel.To <= sel.From {
		return sel, fmt.Errorf("api: empty time window [%d, %d)", sel.From, sel.To)
	}
	return sel, nil
}

// qTime parses a time parameter through the shared VQL time-literal
// validator (Unix seconds or a date/time string). Absent means 0
// (unconstrained); malformed is an error. An explicit bound of exactly
// Unix epoch 0 is rejected rather than silently collapsing into the
// query.Selection 0-as-unset sentinel (and thereby dropping the
// constraint).
func qTime(r *http.Request, key string) (int64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, nil
	}
	ts, err := vql.ParseTime(v)
	if err != nil {
		return 0, fmt.Errorf("api: bad %s parameter: %w", key, err)
	}
	if ts == 0 {
		return 0, fmt.Errorf("api: %s at Unix epoch 0 is not representable; use 1, a negative bound, or omit the parameter", key)
	}
	return ts, nil
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
	sel, err := parseSelection(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
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

// handleAdminSnapshot triggers a durability snapshot on demand (POST).
// The snapshot runs without blocking writers; when it completes, covered
// WAL segments are retired and — if streaming is enabled — a snapshot
// event is broadcast to SSE subscribers.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("api: snapshot trigger is POST-only"))
		return
	}
	st := s.an.Store()
	start := time.Now()
	if err := st.Snapshot(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, store.ErrNoDurability) {
			status = http.StatusConflict // in-memory store: nothing to snapshot
		}
		writeErr(w, status, err)
		return
	}
	segs, bytes := st.WALStats()
	if s.hub != nil {
		s.hub.Publish(stream.Event{
			Kind:        stream.KindSnapshot,
			WALSegments: segs,
			WALBytes:    bytes,
			DataVersion: s.dataVersion(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":             "ok",
		"duration_ms":        time.Since(start).Milliseconds(),
		"wal_segments":       segs,
		"wal_bytes":          bytes,
		"last_snapshot_unix": st.LastSnapshotUnix(),
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
	sel, err := parseSelection(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
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

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	id := qInt64(r, "id", 0)
	if id == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: id parameter required"))
		return
	}
	sel, err := parseSelection(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	g, err := query.ParseGranularity(qStr(r, "granularity", "daily"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	buckets, err := s.an.MeterSeries(r.Context(), id, sel, g, query.AggFunc(qStr(r, "agg", "mean")))
	if err != nil {
		writeAnalysisErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "granularity": g, "buckets": buckets})
}

// reduceView computes (or returns the memoized) typical-pattern view for
// the request's parameters; when it cannot it answers the request itself
// and reports false. Caching, in-flight deduplication, and version-based
// invalidation all live in the analyzer's execution engine.
func (s *Server) reduceView(w http.ResponseWriter, r *http.Request) (*core.TypicalView, bool) {
	sel, err := parseSelection(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	cfg := core.TypicalConfig{
		Selection:       sel,
		Method:          reduce.Method(qStr(r, "method", "tsne")),
		Metric:          reduce.Metric(qStr(r, "metric", "pearson")),
		Granularity:     query.Granularity(qStr(r, "granularity", "daily")),
		Seed:            qInt64(r, "seed", 42),
		UseDailyProfile: qStr(r, "profile", "") == "daily",
	}
	v, err := s.an.TypicalPatterns(r.Context(), cfg)
	if err != nil {
		writeAnalysisErr(w, err)
		return nil, false
	}
	return v, true
}

func (s *Server) handleReduce(w http.ResponseWriter, r *http.Request) {
	if v, ok := s.reduceView(w, r); ok {
		writeJSON(w, http.StatusOK, v)
	}
}

// handlePatterns applies a brush (bx0,by0,bx1,by1 in [0,1]) to the reduced
// view and returns the group profile — the S1 interaction.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	v, ok := s.reduceView(w, r)
	if !ok {
		return
	}
	brush := core.Brush{
		MinX: qFloat(r, "bx0", 0), MinY: qFloat(r, "by0", 0),
		MaxX: qFloat(r, "bx1", 1), MaxY: qFloat(r, "by1", 1),
	}
	ids, rowIdx, err := v.SelectBrush(brush)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	prof, err := v.Profile(rowIdx)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"selected": len(ids),
		"profile":  prof,
	})
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	sel, err := parseSelection(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	g, err := query.ParseGranularity(qStr(r, "granularity", "4hourly"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t1 := qInt64(r, "t1", 0)
	t2 := qInt64(r, "t2", 0)
	if t1 == 0 || t2 == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: t1 and t2 parameters required"))
		return
	}
	res, err := s.an.ShiftPatternsCtx(r.Context(), core.ShiftConfig{
		Selection:         sel,
		T1:                t1,
		T2:                t2,
		Granularity:       g,
		IntensityQuantile: qFloat(r, "quantile", 0),
		GridCols:          int(qInt64(r, "cols", 96)),
		GridRows:          int(qInt64(r, "rows", 96)),
		Kernel:            kde.Kernel(qStr(r, "kernel", "gaussian")),
		OD:                core.ODMode(qStr(r, "od", "matching")),
	})
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
			name := e.Kind
			if name == "" {
				name = stream.KindIngest
			}
			payload, _ := json.Marshal(e)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, payload)
			fl.Flush()
		}
	}
}
