package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"vap/internal/gen"
	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

// TestDailyProfileViewSkipsMatrix: the daily-profile view resolves its
// meters without building the bucketed matrix it never used, and is the
// view that pipeline gave — the matrix's row order, 24 features, and the
// points reduced from the per-meter profiles. The pre-epoch store's hours
// sit at negative timestamps, whose profile hour must still be the hour of
// day (a truncated modulo indexed hour -23).
func TestDailyProfileViewSkipsMatrix(t *testing.T) {
	an, _ := fixture(t)
	pre := preEpochAnalyzer(t)
	ctx := context.Background()
	for _, tc := range []struct {
		an  *Analyzer
		sel query.Selection
	}{
		{an, query.Selection{}},
		{an, query.Selection{Zone: store.ZoneResidential}},
		{an, query.Selection{MeterIDs: []int64{9, 3, 27, 14, 5}}},
		{pre, query.Selection{}},
	} {
		an, sel := tc.an, tc.sel
		cfg := TypicalConfig{Selection: sel, Seed: 1, Method: reduce.MethodMDS, UseDailyProfile: true}
		view, err := an.TypicalPatterns(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}

		ids, _, _, err := an.Engine().MeterMatrixCtx(ctx, sel, query.GranDaily, query.AggMean)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := dailyProfiles(an.Engine(), ids, sel)
		if err != nil {
			t.Fatal(err)
		}
		from, to, err := an.Engine().TimeWindow(sel)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := an.Engine().DayProfilesCtx(ctx, ids, from, to); err != nil || !reflect.DeepEqual(got, rows) {
			t.Errorf("selection %+v: DayProfilesCtx differs from the per-meter series fold (%v)", sel, err)
		}
		points, err := reduce.Reduce(ctx, rows, reduce.MethodMDS, reduce.MetricPearson, 1, an.Engine().Workers())
		if err != nil {
			t.Fatal(err)
		}
		points.Normalize01()

		if !reflect.DeepEqual(view.MeterIDs, ids) {
			t.Errorf("selection %+v: ids %v, matrix order %v", sel, view.MeterIDs, ids)
		}
		if view.FeatDim != 24 {
			t.Errorf("selection %+v: FeatDim = %d, want 24", sel, view.FeatDim)
		}
		if !reflect.DeepEqual(view.Points, points) {
			t.Errorf("selection %+v: points differ from the profiles' reduction", sel)
		}
		if !reflect.DeepEqual(view.rows, rows) {
			t.Errorf("selection %+v: rows differ from the daily profiles", sel)
		}
	}
	from, to, err := pre.Engine().TimeWindow(query.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pre.Engine().DayProfilesCtx(ctx, []int64{1, 2, 3}, from, to)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for h, v := range row {
			if want := preEpochValue(int64(i+1), h); v != want {
				t.Fatalf("pre-epoch meter %d hour %d: profile %v, want %v", i+1, h, v, want)
			}
		}
	}
}

// dailyProfiles is the reference Engine.DayProfilesCtx must equal bit for
// bit: each meter's hourly mean series, one MeterSeries call a meter, folded
// by floored hour of day.
func dailyProfiles(eng *query.Engine, ids []int64, sel query.Selection) ([][]float64, error) {
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		s := sel
		s.MeterIDs = []int64{id}
		buckets, err := eng.MeterSeries(id, s, query.GranHourly, query.AggMean)
		if err != nil {
			return nil, err
		}
		var sums, counts [24]float64
		for _, b := range buckets {
			h := int((b.Start%86400 + 86400) % 86400 / 3600) // floored: pre-1970 hours too
			sums[h] += b.Value
			counts[h]++
		}
		row := make([]float64, 24)
		for h := 0; h < 24; h++ {
			if counts[h] > 0 {
				row[h] = sums[h] / counts[h]
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// preEpochValue is what preEpochAnalyzer's meter id reads at every hour h
// of the day.
func preEpochValue(id int64, h int) float64 { return float64((h*int(id+2))%24) + float64(id) }

// preEpochAnalyzer serves three meters of hourly samples over the 20 days
// before 1970-01-01.
func preEpochAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for id := int64(1); id <= 3; id++ {
		m := store.Meter{ID: id, Location: geo.Point{Lon: 12.5 + float64(id)*0.01, Lat: 55.6}, Zone: store.ZoneResidential}
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		var smps []store.Sample
		for ts := int64(-20 * 86400); ts < 0; ts += 3600 {
			smps = append(smps, store.Sample{TS: ts, Value: preEpochValue(id, int((ts+20*86400)%86400/3600))})
		}
		if _, err := st.AppendBatch(id, smps); err != nil {
			t.Fatal(err)
		}
	}
	return NewAnalyzer(st)
}

// TestNaNReadingKeepsTypicalFeaturesFinite is the regression test for one
// bad reading moving a meter in view C: a NaN among a meter's readings made
// its daily mean feature NaN, and the Pearson distance matrix clamps a NaN
// distance to 0, so the meter sat at distance 0 from every other meter.
// The feature rows skip the NaN reading the way VQL's mean does.
func TestNaNReadingKeepsTypicalFeaturesFinite(t *testing.T) {
	ds := gen.Generate(gen.Config{Seed: 5, Days: 10, Counts: map[gen.Pattern]int{
		gen.PatternBimodal: 4, gen.PatternConstantHigh: 4, gen.PatternEarlyBird: 4,
	}})
	ds.Readings[0][100].Value = math.NaN()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(st)
	bad := ds.Customers[0].Meter.ID
	for _, profile := range []bool{false, true} {
		view, err := an.TypicalPatterns(context.Background(), TypicalConfig{Seed: 1, Method: reduce.MethodMDS, UseDailyProfile: profile})
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range view.rows {
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("daily profile %t: meter %d feature %d = %v", profile, view.MeterIDs[i], j, v)
				}
			}
		}
		d, err := reduce.DistanceMatrixCtx(context.Background(), view.rows, reduce.MetricPearson, 1)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.Index(view.MeterIDs, bad)
		for j, dist := range d[i] {
			if j != i && dist == 0 {
				t.Errorf("daily profile %t: meter %d is at Pearson distance 0 from meter %d", profile, bad, view.MeterIDs[j])
			}
		}
	}
}
