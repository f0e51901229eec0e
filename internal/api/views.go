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
// window [from,to), an absent bound the data's edge), shift (flow map
// between t1 and t2). Every parameter is read before the mode is, so a bad
// value is a 400 in every mode.
func (s *Server) handleMapSVG(w http.ResponseWriter, r *http.Request, p *params) {
	sel := p.selection()
	mode := p.str("mode", "markers")
	mv := &viz.MapView{W: int(p.int("w", 0, 1)), H: int(p.int("h", 0, 1))}
	cfg := core.ShiftConfig{
		Selection:         sel,
		Granularity:       p.granularity(query.Gran4Hourly),
		IntensityQuantile: p.float("quantile", 0, 0, 1),
		OD:                core.ODMode(p.str("od", "")),
	}
	cfg.T1, cfg.T2 = p.anchors(mode == "shift")
	if p.answered(w) {
		return
	}
	mv.Box = s.an.Store().Catalog().Bounds().Buffer(0.002)
	switch mode {
	case "markers":
		mv.Meters = s.an.Store().Catalog().All()
		mv.Title = "VAP view A: customers"
	case "heat":
		field, err := s.an.DemandDensity(r.Context(), sel, sel.From, sel.To, kde.Config{})
		if err != nil {
			writeAnalysisErr(w, err)
			return
		}
		mv.Heat = field
		mv.Title = "VAP view A: demand density"
	case "shift":
		res, err := s.an.ShiftPatternsCtx(r.Context(), cfg)
		if err != nil {
			writeAnalysisErr(w, err)
			return
		}
		mv.Heat = res.Shift
		mv.HeatDiv = true
		mv.Flows = res.Flows
		mv.Title = "VAP view A: demand shift flow map"
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad mode parameter: unknown map mode %q", mode))
		return
	}
	writeSVG(w, mv.Render())
}

// handleSeriesSVG renders view B for one meter or a brushed group.
func (s *Server) handleSeriesSVG(w http.ResponseWriter, r *http.Request, p *params) {
	sel := p.selection()
	g := p.granularity(query.GranDaily)
	tsv := &viz.TimeSeriesView{
		W: int(p.int("w", 0, 1)), H: int(p.int("h", 0, 1)),
		Title:  "VAP view B: aggregated consumption pattern",
		YLabel: "kWh",
	}
	if p.answered(w) {
		return
	}
	buckets, err := s.an.SelectionSeries(r.Context(), sel, g)
	if err != nil {
		writeAnalysisErr(w, err)
		return
	}
	tsv.Series = []viz.LabeledSeries{{Name: "selection mean", Buckets: buckets}}
	writeSVG(w, tsv.Render())
}

// handleScatterSVG renders view C, with the brush drawn when any corner of
// it is given.
func (s *Server) handleScatterSVG(w http.ResponseWriter, r *http.Request, p *params) {
	sv := &viz.ScatterView{W: int(p.int("w", 0, 1)), H: int(p.int("h", 0, 1))}
	b, brushed := p.brush()
	v, ok := s.typical(w, r, p)
	if !ok {
		return
	}
	sv.Points = v.Points
	sv.Title = fmt.Sprintf("VAP view C: %s / %s", v.Method, v.Metric)
	if brushed {
		sv.Brush = &[4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY}
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
