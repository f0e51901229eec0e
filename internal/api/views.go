package api

import (
	"fmt"
	"net/http"

	"vap/internal/core"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/viz"
)

func writeSVG(w http.ResponseWriter, svg string) {
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write([]byte(svg))
}

// handleMapSVG renders view A. Modes: markers (default), heat (density of
// window [from,to)), shift (flow map between t1 and t2).
func (s *Server) handleMapSVG(w http.ResponseWriter, r *http.Request) {
	sel, err := parseSelection(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	mode := qStr(r, "mode", "markers")
	mv := &viz.MapView{
		Box:    s.an.Store().Catalog().Bounds().Buffer(0.002),
		W:      int(qInt64(r, "w", 720)),
		H:      int(qInt64(r, "h", 560)),
		Meters: s.an.Store().Catalog().All(),
	}
	switch mode {
	case "markers":
		mv.Title = "VAP view A: customers"
	case "heat":
		from := qInt64(r, "from", 0)
		to := qInt64(r, "to", 0)
		if from == 0 || to == 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("api: heat mode requires from and to"))
			return
		}
		field, err := s.an.DemandDensity(r.Context(), sel, from, to, kde.Config{})
		if err != nil {
			writeAnalysisErr(w, err)
			return
		}
		mv.Heat = field
		mv.Meters = nil
		mv.Title = "VAP view A: demand density"
	case "shift":
		g, err := query.ParseGranularity(qStr(r, "granularity", "4hourly"))
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		res, err := s.an.ShiftPatternsCtx(r.Context(), core.ShiftConfig{
			Selection:         sel,
			T1:                qInt64(r, "t1", 0),
			T2:                qInt64(r, "t2", 0),
			Granularity:       g,
			IntensityQuantile: qFloat(r, "quantile", 0),
			OD:                core.ODMode(qStr(r, "od", "matching")),
		})
		if err != nil {
			writeAnalysisErr(w, err)
			return
		}
		mv.Heat = res.Shift
		mv.HeatDiv = true
		mv.Flows = res.Flows
		mv.Meters = nil
		mv.Title = "VAP view A: demand shift flow map"
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: unknown map mode %q", mode))
		return
	}
	writeSVG(w, mv.Render())
}

// handleSeriesSVG renders view B for one meter or a brushed group.
func (s *Server) handleSeriesSVG(w http.ResponseWriter, r *http.Request) {
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
	buckets, err := s.an.Engine().AggregateSelection(r.Context(), sel, g, query.AggMean)
	if err != nil {
		writeAnalysisErr(w, err)
		return
	}
	tsv := &viz.TimeSeriesView{
		W: int(qInt64(r, "w", 720)), H: int(qInt64(r, "h", 260)),
		Title:  "VAP view B: aggregated consumption pattern",
		YLabel: "kWh",
		Series: []viz.LabeledSeries{{Name: "selection mean", Buckets: buckets}},
	}
	writeSVG(w, tsv.Render())
}

// handleScatterSVG renders view C with an optional brush overlay.
func (s *Server) handleScatterSVG(w http.ResponseWriter, r *http.Request) {
	v, ok := s.reduceView(w, r)
	if !ok {
		return
	}
	sv := &viz.ScatterView{
		W: int(qInt64(r, "w", 420)), H: int(qInt64(r, "h", 420)),
		Points: v.Points,
		Title:  fmt.Sprintf("VAP view C: %s / %s", v.Method, v.Metric),
	}
	if r.URL.Query().Get("bx0") != "" {
		b := [4]float64{
			qFloat(r, "bx0", 0), qFloat(r, "by0", 0),
			qFloat(r, "bx1", 1), qFloat(r, "by1", 1),
		}
		sv.Brush = &b
	}
	writeSVG(w, sv.Render())
}

// handleIndex serves the single-page UI shell that stitches the three
// views together (the stand-in for the Leaflet/d3 front end).
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

const indexHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>VAP — Visual Analysis of Energy Consumption</title>
<style>
 body { font-family: sans-serif; margin: 16px; background: #fafafa; color: #222; }
 h1 { font-size: 20px; }
 .row { display: flex; gap: 16px; flex-wrap: wrap; }
 .panel { background: #fff; border: 1px solid #ddd; border-radius: 6px; padding: 8px; }
 .panel h2 { font-size: 14px; margin: 4px 0 8px; color: #444; }
 img { display: block; }
 code { background: #eee; padding: 1px 4px; border-radius: 3px; }
 #summary { font-size: 12px; color: #555; white-space: pre; }
</style>
</head>
<body>
<h1>VAP — Visual Analysis of Energy Consumption Spatio-temporal Patterns</h1>
<p>Views regenerate server-side as SVG. Query parameters follow the REST API
(<code>/api/reduce</code>, <code>/api/patterns</code>, <code>/api/flow</code>,
<code>/api/stream</code>).</p>
<div class="row">
  <div class="panel">
    <h2>View A — map (markers / heat / shift)</h2>
    <img src="/view/map.svg?mode=markers" width="720" height="560" alt="map view">
  </div>
  <div class="panel">
    <h2>View C — pattern navigator (t-SNE, Pearson)</h2>
    <img src="/view/scatter.svg?method=tsne&metric=pearson" width="420" height="420" alt="scatter view">
  </div>
</div>
<div class="row">
  <div class="panel">
    <h2>View B — aggregated consumption pattern</h2>
    <img src="/view/series.svg?granularity=daily" width="720" height="260" alt="series view">
  </div>
  <div class="panel">
    <h2>Live density (SSE)</h2>
    <div id="summary">waiting for /api/stream …</div>
  </div>
</div>
<script>
 const el = document.getElementById('summary');
 try {
   const es = new EventSource('/api/stream');
   es.addEventListener('density', ev => {
     const d = JSON.parse(ev.data);
     el.textContent = 'seq ' + d.seq + '  readings ' + d.count +
       '\nmax density ' + d.summary.max_density.toFixed(4) +
       '\nhot cell ' + d.summary.hot_cell.lon.toFixed(4) + ', ' +
       d.summary.hot_cell.lat.toFixed(4);
   });
   es.onerror = () => { el.textContent = 'stream unavailable'; };
 } catch (e) { el.textContent = 'stream unavailable'; }
</script>
</body>
</html>
`
