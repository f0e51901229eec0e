package query

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"vap/internal/geo"
	"vap/internal/store"
)

func ts(s string) int64 {
	t, err := time.Parse("2006-01-02 15:04", s)
	if err != nil {
		panic(err)
	}
	return t.UTC().Unix()
}

func TestParseGranularity(t *testing.T) {
	for _, g := range AllGranularities {
		got, err := ParseGranularity(string(g))
		if err != nil || got != g {
			t.Errorf("ParseGranularity(%s) = %v, %v", g, got, err)
		}
	}
	if _, err := ParseGranularity("fortnightly"); err == nil {
		t.Error("unknown granularity should fail")
	}
}

func TestTruncateHourly(t *testing.T) {
	x := ts("2018-03-05 14:37")
	want := ts("2018-03-05 14:00")
	if got := GranHourly.Truncate(x); got != want {
		t.Errorf("hourly truncate = %d, want %d", got, want)
	}
}

func TestTruncate4Hourly(t *testing.T) {
	x := ts("2018-03-05 14:37")
	want := ts("2018-03-05 12:00")
	if got := Gran4Hourly.Truncate(x); got != want {
		t.Errorf("4hourly truncate = %d, want %d", got, want)
	}
}

func TestTruncateDaily(t *testing.T) {
	x := ts("2018-03-05 14:37")
	want := ts("2018-03-05 00:00")
	if got := GranDaily.Truncate(x); got != want {
		t.Errorf("daily truncate = %d, want %d", got, want)
	}
}

func TestTruncateWeeklyMonday(t *testing.T) {
	// 2018-03-05 is a Monday; 2018-03-08 (Thursday) truncates to it.
	x := ts("2018-03-08 10:00")
	want := ts("2018-03-05 00:00")
	if got := GranWeekly.Truncate(x); got != want {
		t.Errorf("weekly truncate = %s, want %s",
			time.Unix(got, 0).UTC(), time.Unix(want, 0).UTC())
	}
	// A Monday truncates to itself.
	if got := GranWeekly.Truncate(want); got != want {
		t.Errorf("monday should truncate to itself")
	}
}

func TestTruncateMonthlyQuarterlyYearly(t *testing.T) {
	x := ts("2018-08-17 09:30")
	if got := GranMonthly.Truncate(x); got != ts("2018-08-01 00:00") {
		t.Errorf("monthly truncate wrong")
	}
	if got := GranQuarterly.Truncate(x); got != ts("2018-07-01 00:00") {
		t.Errorf("quarterly truncate wrong")
	}
	if got := GranYearly.Truncate(x); got != ts("2018-01-01 00:00") {
		t.Errorf("yearly truncate wrong")
	}
}

func TestNextAdvancesExactlyOneBucket(t *testing.T) {
	x := ts("2018-08-17 09:30")
	for _, g := range AllGranularities {
		start := g.Truncate(x)
		next := g.Next(x)
		if next <= start {
			t.Errorf("%s: Next did not advance", g)
		}
		// Next's truncation is itself.
		if g.Truncate(next) != next {
			t.Errorf("%s: Next %d is not bucket-aligned", g, next)
		}
		// There is no bucket boundary strictly between start and next.
		if g.Truncate(next-1) != start {
			t.Errorf("%s: gap between buckets", g)
		}
	}
}

func TestNextMonthlyFebruary(t *testing.T) {
	x := ts("2018-02-10 00:00")
	if got := GranMonthly.Next(x); got != ts("2018-03-01 00:00") {
		t.Errorf("feb next = %s", time.Unix(got, 0).UTC())
	}
}

func TestApproxSecondsOrdering(t *testing.T) {
	prev := int64(0)
	for _, g := range AllGranularities {
		s := g.ApproxSeconds()
		if s <= prev {
			t.Errorf("%s approx seconds %d not increasing", g, s)
		}
		prev = s
	}
}

// seriesStore holds one meter with the given samples.
func seriesStore(t *testing.T, samples []store.Sample) *Engine {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.PutMeter(store.Meter{ID: 1, Zone: store.ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	for _, smp := range samples {
		if err := st.Append(1, smp); err != nil {
			t.Fatal(err)
		}
	}
	return NewEngineWorkers(st, 0)
}

func TestMeterSeriesAggregates(t *testing.T) {
	eng := seriesStore(t, []store.Sample{
		{TS: ts("2018-01-01 00:15"), Value: 1},
		{TS: ts("2018-01-01 00:45"), Value: 3},
		{TS: ts("2018-01-01 01:15"), Value: 5},
	})
	sum, err := eng.MeterSeries(1, Selection{}, GranHourly, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 2 || sum[0].Value != 4 || sum[1].Value != 5 || sum[0].Count != 2 || sum[0].Start != ts("2018-01-01 00:00") {
		t.Fatalf("sum = %+v", sum)
	}
	mean, _ := eng.MeterSeries(1, Selection{}, GranHourly, AggMean)
	if mean[0].Value != 2 {
		t.Errorf("mean = %v", mean[0].Value)
	}
	mx, _ := eng.MeterSeries(1, Selection{}, GranHourly, AggMax)
	if mx[0].Value != 3 {
		t.Errorf("max = %v", mx[0].Value)
	}
	mn, _ := eng.MeterSeries(1, Selection{}, GranHourly, AggMin)
	if mn[0].Value != 1 {
		t.Errorf("min = %v", mn[0].Value)
	}
	if _, err := eng.MeterSeries(1, Selection{}, GranHourly, "median"); err == nil {
		t.Error("unknown aggregate should fail")
	}
}

func TestMeterSeriesEmptyWindow(t *testing.T) {
	eng := seriesStore(t, []store.Sample{{TS: ts("2018-01-01 00:15"), Value: 1}})
	sel := Selection{From: ts("2018-02-01 00:00"), To: ts("2018-02-03 00:00")}
	out, err := eng.MeterSeries(1, sel, GranDaily, AggSum)
	if err != nil || out != nil {
		t.Errorf("empty window = %v, %v", out, err)
	}
}

// TestFinalizeNaN documents the one finalization rule (AggFunc.Value) on
// buckets holding NaN readings: NaN readings are skipped, so a sum, mean,
// min or max ranges over the rest; a bucket of only NaN readings sums to 0
// and has no mean, min or max, so MeterSeries leaves it out; count counts
// every reading. The rule must not depend on where in the bucket the NaN
// sits, nor on whether a rollup tier or the raw samples served the bucket.
func TestFinalizeNaN(t *testing.T) {
	nan := math.NaN()
	h0, h1, h2 := ts("2018-01-01 00:00"), ts("2018-01-01 01:00"), ts("2018-01-01 02:00")
	samples := []store.Sample{
		{TS: h0 + 60, Value: nan}, {TS: h0 + 120, Value: 2}, {TS: h0 + 180, Value: 7}, // NaN first
		{TS: h1 + 60, Value: 4}, {TS: h1 + 120, Value: nan}, {TS: h1 + 180, Value: 1}, // NaN inside
		{TS: h2 + 60, Value: nan}, {TS: h2 + 120, Value: nan}, // only NaN
	}
	want := map[AggFunc][]float64{
		AggSum:  {9, 5, 0},
		AggMean: {4.5, 2.5},
		AggMin:  {2, 1},
		AggMax:  {7, 4},
	}
	counts := [3]int{3, 3, 2}
	eng := seriesStore(t, samples)
	windows := map[string]Selection{
		"tier interior": {From: h0, To: h2 + 3600},
		"raw edges":     {From: h0 + 1, To: h2 + 3599},
	}
	for name, sel := range windows {
		for fn, vals := range want {
			got, err := eng.MeterSeries(1, sel, GranHourly, fn)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(vals) {
				t.Fatalf("%s %s: %d buckets, want %d", name, fn, len(got), len(vals))
			}
			for i, b := range got {
				if b.Start != []int64{h0, h1, h2}[i] || b.Count != counts[i] || b.Value != vals[i] {
					t.Errorf("%s %s bucket %d = %+v, want value %v count %d", name, fn, i, b, vals[i], counts[i])
				}
			}
		}
	}
}

// TestDayProfilesSkipNonFinite pins DayProfilesCtx's hour means to the one
// finalization rule: a NaN reading is skipped inside its hourly bucket, and
// an hourly bucket without a mean (only NaN readings, or an ±Inf one) is
// left out of its hour, as an hour without readings is.
func TestDayProfilesSkipNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	d1, d2 := ts("2018-01-01 00:00"), ts("2018-01-02 00:00")
	eng := seriesStore(t, []store.Sample{
		{TS: d1 + 3*3600 + 600, Value: nan}, // hour 3: only NaN
		{TS: d1 + 5*3600 + 600, Value: 2}, {TS: d1 + 5*3600 + 1200, Value: nan}, {TS: d1 + 5*3600 + 2400, Value: 4},
		{TS: d1 + 7*3600 + 600, Value: inf}, {TS: d1 + 7*3600 + 1200, Value: 1}, // hour 7: +Inf
		{TS: d2 + 3*3600 + 600, Value: 6},
		{TS: d2 + 5*3600 + 600, Value: 5},
		{TS: d2 + 7*3600 + 600, Value: 8},
	})
	want := make([]float64, 24)
	want[3], want[5], want[7] = 6, (3+5)/2.0, 8
	for _, w := range [][2]int64{{d1, d2 + 86400}, {d1 + 1, d2 + 86400 - 1}} {
		rows, err := eng.DayProfilesCtx(context.Background(), []int64{1}, w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || !reflect.DeepEqual(rows[0], want) {
			t.Errorf("window %v: profile %v, want %v", w, rows, want)
		}
	}
}

// buildStore creates 3 meters: two residential in the west, one commercial
// in the east, with simple hourly data over `days` days.
func buildStore(t *testing.T, days int) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meters := []store.Meter{
		{ID: 1, Location: geo.Point{Lon: 12.50, Lat: 55.60}, Zone: store.ZoneResidential},
		{ID: 2, Location: geo.Point{Lon: 12.51, Lat: 55.61}, Zone: store.ZoneResidential},
		{ID: 3, Location: geo.Point{Lon: 12.60, Lat: 55.60}, Zone: store.ZoneCommercial},
	}
	start := ts("2018-01-01 00:00")
	for _, m := range meters {
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < days*24; h++ {
			v := float64(m.ID) // constant per meter
			if m.ID == 3 {
				// Commercial peaks at noon.
				hour := h % 24
				if hour >= 9 && hour <= 17 {
					v = 10
				} else {
					v = 1
				}
			}
			if err := st.Append(m.ID, store.Sample{TS: start + int64(h)*3600, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

func TestResolveMetersAll(t *testing.T) {
	st := buildStore(t, 2)
	defer st.Close()
	eng := NewEngineWorkers(st, 0)
	ids, err := eng.ResolveMeters(Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestResolveMetersBBoxAndZone(t *testing.T) {
	st := buildStore(t, 1)
	defer st.Close()
	eng := NewEngineWorkers(st, 0)
	west := geo.NewBBox(geo.Point{Lon: 12.49, Lat: 55.59}, geo.Point{Lon: 12.55, Lat: 55.65})
	ids, err := eng.ResolveMeters(Selection{BBox: &west})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("west ids = %v", ids)
	}
	ids, err = eng.ResolveMeters(Selection{Zone: store.ZoneCommercial})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("commercial ids = %v", ids)
	}
	// Explicit IDs filtered by bbox.
	ids, err = eng.ResolveMeters(Selection{MeterIDs: []int64{1, 3}, BBox: &west})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("ids∩bbox = %v", ids)
	}
	// Nothing matches.
	far := geo.NewBBox(geo.Point{Lon: 0, Lat: 0}, geo.Point{Lon: 1, Lat: 1})
	if _, err := eng.ResolveMeters(Selection{BBox: &far}); err != ErrNoMeters {
		t.Errorf("empty selection err = %v", err)
	}
	// An explicit id list is a filter too: unknown ids drop out (of the
	// result, not of the caller's slice), and none known matches nothing.
	named := []int64{3, 99, 1}
	ids, err = eng.ResolveMeters(Selection{MeterIDs: named})
	if err != nil || !reflect.DeepEqual(ids, []int64{1, 3}) || !reflect.DeepEqual(named, []int64{3, 99, 1}) {
		t.Errorf("ids {3, 99, 1} = %v, %v (selection now %v), want [1 3] and the selection untouched", ids, err, named)
	}
	if _, err := eng.ResolveMeters(Selection{MeterIDs: []int64{99}}); err != ErrNoMeters {
		t.Errorf("only an unknown id: err = %v, want ErrNoMeters", err)
	}
	// A repeated id selects its meter once.
	ids, err = eng.ResolveMeters(Selection{MeterIDs: []int64{3, 1, 3, 1, 1}})
	if err != nil || !reflect.DeepEqual(ids, []int64{1, 3}) {
		t.Errorf("ids {3, 1, 3, 1, 1} = %v, %v, want [1 3]", ids, err)
	}
}

func TestMeterMatrixAlignment(t *testing.T) {
	st := buildStore(t, 3)
	defer st.Close()
	eng := NewEngineWorkers(st, 0)
	ids, times, rows, err := eng.MeterMatrixCtx(context.Background(), Selection{}, GranDaily, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || len(rows) != 3 {
		t.Fatalf("shape: %d ids, %d rows", len(ids), len(rows))
	}
	if len(times) != 3 {
		t.Fatalf("times = %d, want 3 days", len(times))
	}
	for _, row := range rows {
		if len(row) != len(times) {
			t.Fatalf("row width %d != times %d", len(row), len(times))
		}
	}
	// Meter 1 is constant 1.0; its daily mean must be 1 everywhere.
	for _, v := range rows[0] {
		if v != 1 {
			t.Fatalf("meter 1 daily mean = %v", v)
		}
	}
}

func TestTotalByMeterAndIntensityBand(t *testing.T) {
	st := buildStore(t, 2)
	defer st.Close()
	eng := NewEngineWorkers(st, 0)
	totals, err := eng.TotalByMeterCtx(context.Background(), Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if totals[2] != 2*48 {
		t.Errorf("meter 2 total = %v, want 96", totals[2])
	}
	// Top half by quantile: meter 3 (mixed 1/10) and meter 2.
	ids, err := eng.IntensityBandCtx(context.Background(), Selection{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 || len(ids) == 3 {
		t.Fatalf("band = %v", ids)
	}
	// q=0 keeps everyone.
	ids, _ = eng.IntensityBandCtx(context.Background(), Selection{}, 0)
	if len(ids) != 3 {
		t.Fatalf("q=0 band = %v", ids)
	}
	if _, err := eng.IntensityBandCtx(context.Background(), Selection{}, 1.5); err == nil {
		t.Error("q>1 should fail")
	}
}

func TestDemandSnapshotWeights(t *testing.T) {
	st := buildStore(t, 1)
	defer st.Close()
	eng := NewEngineWorkers(st, 0)
	noon := ts("2018-01-01 12:00")
	pts, err := eng.DemandSnapshotCtx(context.Background(), Selection{}, noon, noon+3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// At noon, meter 3 consumes 10 (highest) -> weight 1; meter 1 consumes
	// 1 (lowest) -> weight 0.
	byID := map[int64]DemandPoint{}
	for _, p := range pts {
		byID[p.MeterID] = p
	}
	if byID[3].Weight != 1 {
		t.Errorf("peak meter weight = %v, want 1", byID[3].Weight)
	}
	if byID[1].Weight != 0 {
		t.Errorf("low meter weight = %v, want 0", byID[1].Weight)
	}
}

func TestAggregateSelection(t *testing.T) {
	st := buildStore(t, 2)
	defer st.Close()
	eng := NewEngineWorkers(st, 0)
	buckets, err := eng.AggregateSelection(context.Background(), Selection{MeterIDs: []int64{1, 2}}, GranDaily, AggMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	// Mean of constant-1 and constant-2 meters is 1.5.
	if buckets[0].Value != 1.5 {
		t.Errorf("selection mean = %v, want 1.5", buckets[0].Value)
	}
}

func TestMeterSeriesWindow(t *testing.T) {
	st := buildStore(t, 2)
	defer st.Close()
	eng := NewEngineWorkers(st, 0)
	from := ts("2018-01-01 00:00")
	to := ts("2018-01-02 00:00")
	buckets, err := eng.MeterSeries(1, Selection{From: from, To: to}, GranHourly, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 24 {
		t.Fatalf("buckets = %d, want 24", len(buckets))
	}
	if _, err := eng.MeterSeries(1, Selection{From: 100, To: 50}, GranHourly, AggSum); !errors.Is(err, ErrInput) {
		t.Errorf("inverted window: err = %v, want ErrInput", err)
	}
	// An absent side is the data's own edge (two days of hourly readings),
	// and a from past the last reading leaves nothing to answer over.
	for _, tc := range []struct {
		sel  Selection
		want int
	}{{Selection{From: to}, 24}, {Selection{To: to}, 24}, {Selection{From: to - 3600}, 25}, {Selection{To: from + 3600}, 1}} {
		if buckets, err := eng.MeterSeries(1, tc.sel, GranHourly, AggSum); err != nil || len(buckets) != tc.want {
			t.Errorf("window %+v: %d buckets, %v; want %d", tc.sel, len(buckets), err, tc.want)
		}
	}
	if _, err := eng.MeterSeries(1, Selection{From: to + 365*86400}, GranHourly, AggSum); !errors.Is(err, ErrInput) {
		t.Errorf("from past the data: err = %v, want ErrInput", err)
	}
}
