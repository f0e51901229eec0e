// Package viz renders VAP's three analysis views as SVG, server-side,
// replacing the paper's Leaflet.js/d3.js presentation stack:
//
//   - view A: the map — customer markers, a KDE heat layer, and flow
//     arrows whose color depth encodes the rate of change;
//   - view B: the time-series chart of the selected customers' aggregated
//     consumption pattern;
//   - view C: the interactive 2-D embedding scatter (dimension-reduced
//     points colored by group).
//
// SVG is built with a small escaping writer; no third-party code.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Canvas accumulates SVG elements.
type Canvas struct {
	W, H int
	sb   strings.Builder
}

// NewCanvas returns an empty canvas of the given pixel size.
func NewCanvas(w, h int) *Canvas {
	if w <= 0 {
		w = 640
	}
	if h <= 0 {
		h = 480
	}
	return &Canvas{W: w, H: h}
}

func (c *Canvas) elem(s string, args ...interface{}) {
	fmt.Fprintf(&c.sb, s, args...)
	c.sb.WriteByte('\n')
}

// Rect draws a filled rectangle.
func (c *Canvas) Rect(x, y, w, h float64, fill string, opacity float64) {
	c.elem(`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.3f"/>`,
		x, y, w, h, escAttr(fill), opacity)
}

// Circle draws a filled circle.
func (c *Canvas) Circle(x, y, r float64, fill string, opacity float64) {
	c.elem(`<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s" fill-opacity="%.3f"/>`,
		x, y, r, escAttr(fill), opacity)
}

// Line draws a stroked line.
func (c *Canvas) Line(x1, y1, x2, y2 float64, stroke string, width, opacity float64) {
	c.elem(`<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f" stroke-opacity="%.3f"/>`,
		x1, y1, x2, y2, escAttr(stroke), width, opacity)
}

// Polyline draws a stroked open path through the points.
func (c *Canvas) Polyline(pts [][2]float64, stroke string, width float64) {
	if len(pts) < 2 {
		return
	}
	var b strings.Builder
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.2f,%.2f", p[0], p[1])
	}
	c.elem(`<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"/>`,
		b.String(), escAttr(stroke), width)
}

// Text draws a text label.
func (c *Canvas) Text(x, y float64, size int, fill, s string) {
	c.elem(`<text x="%.2f" y="%.2f" font-size="%d" font-family="sans-serif" fill="%s">%s</text>`,
		x, y, size, escAttr(fill), escText(s))
}

// Arrow draws a line with a triangular head at the To end.
func (c *Canvas) Arrow(x1, y1, x2, y2 float64, stroke string, width, opacity float64) {
	c.Line(x1, y1, x2, y2, stroke, width, opacity)
	dx, dy := x2-x1, y2-y1
	l := math.Hypot(dx, dy)
	if l < 1e-9 {
		return
	}
	ux, uy := dx/l, dy/l
	// Head: two barbs at ±150 degrees from the shaft direction.
	size := 3 + 2*width
	bx1 := x2 - size*(ux*0.866-uy*0.5)
	by1 := y2 - size*(uy*0.866+ux*0.5)
	bx2 := x2 - size*(ux*0.866+uy*0.5)
	by2 := y2 - size*(uy*0.866-ux*0.5)
	c.elem(`<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="%s" fill-opacity="%.3f"/>`,
		x2, y2, bx1, by1, bx2, by2, escAttr(stroke), opacity)
}

// String finalizes the SVG document.
func (c *Canvas) String() string {
	return fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		c.W, c.H, c.W, c.H) + c.sb.String() + "</svg>\n"
}

func escAttr(s string) string {
	r := strings.NewReplacer(`&`, "&amp;", `<`, "&lt;", `>`, "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func escText(s string) string {
	r := strings.NewReplacer(`&`, "&amp;", `<`, "&lt;", `>`, "&gt;")
	return r.Replace(s)
}

// --- Color ramps -----------------------------------------------------------

// HeatColor maps v in [0,1] to a white->yellow->red->dark ramp (heat map).
func HeatColor(v float64) string {
	v = clamp01(v)
	switch {
	case v < 0.25:
		t := v / 0.25
		return rgb(255, 255, int(255*(1-t)))
	case v < 0.6:
		t := (v - 0.25) / 0.35
		return rgb(255, int(255*(1-t)), 0)
	default:
		t := (v - 0.6) / 0.4
		return rgb(int(255-120*t), 0, 0)
	}
}

// DivergingColor maps v in [-1,1] to blue (loss) .. white .. red (gain).
func DivergingColor(v float64) string {
	if v < -1 {
		v = -1
	}
	if v > 1 {
		v = 1
	}
	if v < 0 {
		t := -v
		return rgb(int(255*(1-t)+30*t), int(255*(1-t)+80*t), 255)
	}
	t := v
	return rgb(255, int(255*(1-t)+40*t), int(255*(1-t)+40*t))
}

// FlowColor darkens with the rate of change (the paper: "the darker the
// color, the higher the rate").
func FlowColor(rate float64) string {
	rate = clamp01(rate)
	// light orange -> dark red
	r := 255 - int(120*rate)
	g := 140 - int(120*rate)
	return rgb(r, g, 20)
}

// CategoryColor returns a stable palette color for a small integer class.
func CategoryColor(i int) string {
	palette := []string{
		"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
		"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
	}
	if i < 0 {
		i = -i
	}
	return palette[i%len(palette)]
}

func rgb(r, g, b int) string {
	return fmt.Sprintf("#%02x%02x%02x", clamp255(r), clamp255(g), clamp255(b))
}

func clamp255(v int) int {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// niceTicks returns ~n round tick values spanning [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 || hi <= lo {
		return []float64{lo, hi}
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for span/step > float64(n)*2 {
		step *= 2
	}
	for span/step > float64(n) {
		step *= 2.5
	}
	var out []float64
	for v := math.Ceil(lo/step) * step; v <= hi+1e-12; v += step {
		out = append(out, v)
	}
	return out
}
