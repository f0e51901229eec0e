package viz

import (
	"fmt"
	"time"

	"vap/internal/flow"
	"vap/internal/geo"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

// MapView renders view A: an optional heat layer, meter markers, and flow
// arrows over the study-area box projected with Web Mercator.
type MapView struct {
	Box     geo.BBox
	W, H    int
	Heat    *kde.Field    // optional density or shift layer
	HeatDiv bool          // true renders Heat with the diverging ramp
	Meters  []store.Meter // optional markers
	Flows   []flow.Vector
	Title   string
}

// project maps a geographic point into canvas pixels.
func (m *MapView) project(p geo.Point) (float64, float64) {
	x0, y0 := geo.Mercator(geo.Point{Lon: m.Box.Min.Lon, Lat: m.Box.Max.Lat}) // NW
	x1, y1 := geo.Mercator(geo.Point{Lon: m.Box.Max.Lon, Lat: m.Box.Min.Lat}) // SE
	px, py := geo.Mercator(p)
	if x1 == x0 || y1 == y0 {
		return 0, 0
	}
	return (px - x0) / (x1 - x0) * float64(m.W), (py - y0) / (y1 - y0) * float64(m.H)
}

// Render produces the SVG document.
func (m *MapView) Render() string {
	if m.W <= 0 {
		m.W = 720
	}
	if m.H <= 0 {
		m.H = 560
	}
	c := NewCanvas(m.W, m.H)
	c.Rect(0, 0, float64(m.W), float64(m.H), "#f4f2ec", 1) // map background
	if m.Heat != nil {
		m.renderHeat(c)
	}
	for _, mt := range m.Meters {
		x, y := m.project(mt.Location)
		c.Circle(x, y, 2.0, zoneColor(mt.Zone), 0.55)
	}
	for _, f := range m.Flows {
		x1, y1 := m.project(f.From)
		x2, y2 := m.project(f.To)
		width := 1.2 + 2.4*f.Rate
		c.Arrow(x1, y1, x2, y2, FlowColor(f.Rate), width, 0.6+0.4*f.Rate)
	}
	if m.Title != "" {
		c.Text(10, 20, 14, "#333", m.Title)
	}
	return c.String()
}

func (m *MapView) renderHeat(c *Canvas) {
	lo, hi := m.Heat.MinMax()
	cellW := float64(m.W) / float64(m.Heat.Cols)
	cellH := float64(m.H) / float64(m.Heat.Rows)
	for r := 0; r < m.Heat.Rows; r++ {
		for col := 0; col < m.Heat.Cols; col++ {
			v := m.Heat.At(col, r)
			var color string
			var opacity float64
			if m.HeatDiv {
				scale := hi
				if -lo > scale {
					scale = -lo
				}
				if scale == 0 {
					continue
				}
				nv := v / scale
				if nv > -0.04 && nv < 0.04 {
					continue
				}
				color = DivergingColor(nv)
				opacity = 0.55
			} else {
				if hi == lo || v <= lo {
					continue
				}
				nv := (v - lo) / (hi - lo)
				if nv < 0.04 {
					continue
				}
				color = HeatColor(nv)
				opacity = 0.5 * nv
				if opacity < 0.08 {
					opacity = 0.08
				}
			}
			// Raster rows count up from the south edge; canvas y runs down.
			y := float64(m.H) - float64(r+1)*cellH
			c.Rect(float64(col)*cellW, y, cellW+0.5, cellH+0.5, color, opacity)
		}
	}
}

func zoneColor(z store.ZoneType) string {
	switch z {
	case store.ZoneCommercial:
		return "#1f77b4"
	case store.ZoneResidential:
		return "#2ca02c"
	case store.ZoneIndustrial:
		return "#7f7f7f"
	default:
		return "#9467bd"
	}
}

// TimeSeriesView renders view B: one or more bucket series as lines with
// axes and time labels.
type TimeSeriesView struct {
	W, H   int
	Series []LabeledSeries
	Title  string
	YLabel string
}

// LabeledSeries is one named line.
type LabeledSeries struct {
	Name    string
	Buckets []query.Bucket
}

// Render produces the SVG document.
func (v *TimeSeriesView) Render() string {
	if v.W <= 0 {
		v.W = 720
	}
	if v.H <= 0 {
		v.H = 260
	}
	const padL, padR, padT, padB = 52, 12, 26, 30
	c := NewCanvas(v.W, v.H)
	c.Rect(0, 0, float64(v.W), float64(v.H), "#ffffff", 1)
	plotW := float64(v.W - padL - padR)
	plotH := float64(v.H - padT - padB)
	// Global extents.
	var minT, maxT int64 = 1 << 62, -1 << 62
	minV, maxV := 0.0, 1e-12
	any := false
	for _, s := range v.Series {
		for _, b := range s.Buckets {
			any = true
			if b.Start < minT {
				minT = b.Start
			}
			if b.Start > maxT {
				maxT = b.Start
			}
			if b.Value > maxV {
				maxV = b.Value
			}
			if b.Value < minV {
				minV = b.Value
			}
		}
	}
	if !any {
		c.Text(float64(v.W)/2-40, float64(v.H)/2, 12, "#999", "no data")
		return c.String()
	}
	if maxT == minT {
		maxT = minT + 1
	}
	xOf := func(ts int64) float64 {
		return padL + float64(ts-minT)/float64(maxT-minT)*plotW
	}
	yOf := func(val float64) float64 {
		return padT + (1-(val-minV)/(maxV-minV))*plotH
	}
	// Axes.
	c.Line(padL, padT, padL, padT+plotH, "#888", 1, 1)
	c.Line(padL, padT+plotH, padL+plotW, padT+plotH, "#888", 1, 1)
	for _, t := range niceTicks(minV, maxV, 4) {
		y := yOf(t)
		c.Line(padL-3, y, padL, y, "#888", 1, 1)
		c.Text(4, y+4, 10, "#555", fmt.Sprintf("%.2f", t))
	}
	// Three time labels.
	for _, frac := range []float64{0, 0.5, 1} {
		ts := minT + int64(frac*float64(maxT-minT))
		x := xOf(ts)
		c.Text(x-32, float64(v.H)-8, 10, "#555",
			time.Unix(ts, 0).UTC().Format("2006-01-02 15:04"))
	}
	for i, s := range v.Series {
		color := CategoryColor(i)
		pts := make([][2]float64, len(s.Buckets))
		for j, b := range s.Buckets {
			pts[j] = [2]float64{xOf(b.Start), yOf(b.Value)}
		}
		c.Polyline(pts, color, 1.6)
		c.Text(padL+8+float64(i)*140, 16, 11, color, s.Name)
	}
	if v.Title != "" {
		c.Text(padL, padT-8, 12, "#333", v.Title)
	}
	if v.YLabel != "" {
		c.Text(4, 12, 10, "#555", v.YLabel)
	}
	return c.String()
}

// ScatterView renders view C: the normalized 2-D embedding with optional
// group coloring and a brush rectangle overlay.
type ScatterView struct {
	W, H   int
	Points reduce.Embedding // normalized to [0,1]^2
	// Labels color points by group; nil draws all points alike.
	Labels []int
	// Brush, if non-nil, is drawn as a selection rectangle (normalized
	// coordinates: MinX, MinY, MaxX, MaxY).
	Brush *[4]float64
	Title string
}

// Render produces the SVG document.
func (v *ScatterView) Render() string {
	if v.W <= 0 {
		v.W = 420
	}
	if v.H <= 0 {
		v.H = 420
	}
	const pad = 14
	c := NewCanvas(v.W, v.H)
	c.Rect(0, 0, float64(v.W), float64(v.H), "#fbfbfd", 1)
	plotW := float64(v.W - 2*pad)
	plotH := float64(v.H - 2*pad)
	for i, p := range v.Points {
		x := pad + p[0]*plotW
		y := pad + (1-p[1])*plotH
		color := "#1f77b4"
		if v.Labels != nil && i < len(v.Labels) {
			color = CategoryColor(v.Labels[i])
		}
		c.Circle(x, y, 2.6, color, 0.8)
	}
	if v.Brush != nil {
		b := *v.Brush
		x := pad + b[0]*plotW
		y := pad + (1-b[3])*plotH
		w := (b[2] - b[0]) * plotW
		h := (b[3] - b[1]) * plotH
		c.Rect(x, y, w, h, "#d62728", 0.12)
		c.elem(`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="none" stroke="#d62728" stroke-width="1.2"/>`, x, y, w, h)
	}
	if v.Title != "" {
		c.Text(10, 14, 12, "#333", v.Title)
	}
	return c.String()
}
