package viz

import (
	"context"
	"strings"
	"testing"

	"vap/internal/flow"
	"vap/internal/geo"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

func TestCanvasBasicElements(t *testing.T) {
	c := NewCanvas(100, 80)
	c.Rect(1, 2, 3, 4, "#fff", 1)
	c.Circle(10, 10, 5, "#123456", 0.5)
	c.Line(0, 0, 10, 10, "red", 1, 1)
	c.Polyline([][2]float64{{0, 0}, {5, 5}, {10, 0}}, "blue", 2)
	c.Text(5, 5, 12, "#000", "hello")
	c.Arrow(0, 0, 20, 20, "green", 1.5, 0.8)
	svg := c.String()
	for _, want := range []string{"<svg", "</svg>", "<rect", "<circle", "<line", "<polyline", "<text", "hello", "<polygon", `width="100"`, `height="80"`} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
}

func TestCanvasEscaping(t *testing.T) {
	c := NewCanvas(10, 10)
	c.Text(0, 0, 10, `"><script>`, `<b>&"`)
	svg := c.String()
	if strings.Contains(svg, "<script>") {
		t.Error("attribute not escaped")
	}
	if strings.Contains(svg, "<b>") {
		t.Error("text not escaped")
	}
	if !strings.Contains(svg, "&lt;b&gt;&amp;") {
		t.Error("escaped entities missing")
	}
}

func TestCanvasDefaultsSize(t *testing.T) {
	c := NewCanvas(0, -5)
	if c.W <= 0 || c.H <= 0 {
		t.Errorf("canvas defaults = %dx%d", c.W, c.H)
	}
}

func TestPolylineTooShort(t *testing.T) {
	c := NewCanvas(10, 10)
	c.Polyline([][2]float64{{1, 1}}, "red", 1)
	if strings.Contains(c.String(), "polyline") {
		t.Error("single-point polyline should be skipped")
	}
}

func TestHeatColorRamp(t *testing.T) {
	low := HeatColor(0)
	high := HeatColor(1)
	if low == high {
		t.Error("heat ramp endpoints identical")
	}
	if HeatColor(-5) != HeatColor(0) || HeatColor(5) != HeatColor(1) {
		t.Error("heat color must clamp")
	}
	// All outputs are hex colors.
	for _, v := range []float64{0, 0.2, 0.5, 0.8, 1} {
		c := HeatColor(v)
		if len(c) != 7 || c[0] != '#' {
			t.Errorf("HeatColor(%v) = %q", v, c)
		}
	}
}

func TestDivergingColor(t *testing.T) {
	if DivergingColor(0) != "#ffffff" {
		t.Errorf("neutral = %q, want white", DivergingColor(0))
	}
	neg := DivergingColor(-1)
	pos := DivergingColor(1)
	if neg == pos {
		t.Error("diverging endpoints identical")
	}
	// Negative is blue-ish (blue channel ff), positive red-ish.
	if !strings.HasSuffix(neg, "ff") {
		t.Errorf("loss color = %q, want blue-dominant", neg)
	}
	if !strings.HasPrefix(pos, "#ff") {
		t.Errorf("gain color = %q, want red-dominant", pos)
	}
}

func TestFlowColorDarkens(t *testing.T) {
	// Paper: the darker the color, the higher the rate.
	light := FlowColor(0)
	dark := FlowColor(1)
	if light == dark {
		t.Error("flow colors identical")
	}
	// Compare red channels: dark must be smaller.
	if light[1:3] <= dark[1:3] {
		t.Errorf("rate 1 color %q not darker than rate 0 %q", dark, light)
	}
}

func TestCategoryColorStable(t *testing.T) {
	if CategoryColor(3) != CategoryColor(3) {
		t.Error("category color unstable")
	}
	if CategoryColor(0) == CategoryColor(1) {
		t.Error("adjacent categories share a color")
	}
	if CategoryColor(-2) == "" || CategoryColor(100) == "" {
		t.Error("out-of-range categories must still map")
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(0, 10, 5)
	if len(ticks) < 2 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("ticks not increasing: %v", ticks)
		}
	}
	if got := niceTicks(5, 5, 4); len(got) != 2 {
		t.Errorf("degenerate ticks = %v", got)
	}
}

func mapFixture(t *testing.T) *MapView {
	t.Helper()
	box := geo.NewBBox(geo.Point{Lon: 12.4, Lat: 55.5}, geo.Point{Lon: 12.8, Lat: 55.9})
	field, err := kde.EstimateCtx(context.Background(),
		[]kde.WeightedPoint{{Loc: geo.Point{Lon: 12.6, Lat: 55.7}, Weight: 1}},
		box, kde.Config{Cols: 16, Rows: 16, Bandwidth: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return &MapView{
		Box:  box,
		Heat: field,
		Meters: []store.Meter{
			{ID: 1, Location: geo.Point{Lon: 12.5, Lat: 55.6}, Zone: store.ZoneResidential},
			{ID: 2, Location: geo.Point{Lon: 12.7, Lat: 55.8}, Zone: store.ZoneCommercial},
		},
		Highlight: map[int64]bool{2: true},
		Flows: []flow.Vector{
			{From: geo.Point{Lon: 12.5, Lat: 55.6}, To: geo.Point{Lon: 12.7, Lat: 55.8}, Mass: 1, Rate: 1},
		},
		Title: "test map",
	}
}

func TestMapViewRender(t *testing.T) {
	svg := mapFixture(t).Render()
	for _, want := range []string{"<svg", "test map", "<circle", "<polygon", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("map svg missing %q", want)
		}
	}
}

func TestMapViewDivergingRender(t *testing.T) {
	mv := mapFixture(t)
	// Make the heat field signed.
	for i := range mv.Heat.Values {
		if i%2 == 0 {
			mv.Heat.Values[i] = -mv.Heat.Values[i] - 0.1
		}
	}
	mv.HeatDiv = true
	svg := mv.Render()
	if !strings.Contains(svg, "<rect") {
		t.Error("diverging heat produced no cells")
	}
}

func TestTimeSeriesViewRender(t *testing.T) {
	v := &TimeSeriesView{
		Title:  "series",
		YLabel: "kWh",
		Series: []LabeledSeries{{
			Name: "mean",
			Buckets: []query.Bucket{
				{Start: 1514764800, Value: 1},
				{Start: 1514768400, Value: 3},
				{Start: 1514772000, Value: 2},
			},
		}},
	}
	svg := v.Render()
	for _, want := range []string{"polyline", "series", "kWh", "2018-01-01"} {
		if !strings.Contains(svg, want) {
			t.Errorf("series svg missing %q", want)
		}
	}
}

func TestTimeSeriesViewEmpty(t *testing.T) {
	svg := (&TimeSeriesView{}).Render()
	if !strings.Contains(svg, "no data") {
		t.Error("empty series should render a notice")
	}
}

func TestScatterViewRender(t *testing.T) {
	v := &ScatterView{
		Points: reduce.Embedding{{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}},
		Labels: []int{0, 1, 2},
		Brush:  &[4]float64{0.4, 0.4, 0.6, 0.6},
		Title:  "view C",
	}
	svg := v.Render()
	if strings.Count(svg, "<circle") != 3 {
		t.Errorf("scatter circles = %d, want 3", strings.Count(svg, "<circle"))
	}
	if !strings.Contains(svg, "view C") {
		t.Error("missing title")
	}
	// Brush draws a stroked rect plus the translucent fill.
	if strings.Count(svg, "<rect") < 3 { // background + fill + outline
		t.Error("brush rectangles missing")
	}
}

func TestScatterViewNoLabels(t *testing.T) {
	v := &ScatterView{Points: reduce.Embedding{{0.2, 0.3}}}
	if !strings.Contains(v.Render(), "<circle") {
		t.Error("unlabeled scatter missing points")
	}
}
