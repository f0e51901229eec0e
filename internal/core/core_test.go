package core

import (
	"context"
	"errors"
	"testing"

	"vap/internal/gen"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

// fixture builds a small planted dataset and its analyzer once per test
// binary; the dataset is read-only for all tests here.
func fixture(t *testing.T) (*Analyzer, *gen.Dataset) {
	t.Helper()
	ds := gen.Generate(gen.Config{
		Seed: 11,
		Days: 40,
		Counts: map[gen.Pattern]int{
			gen.PatternBimodal:      15,
			gen.PatternEnergySaving: 15,
			gen.PatternIdle:         10,
			gen.PatternConstantHigh: 12,
			gen.PatternSuspicious:   8,
			gen.PatternEarlyBird:    12,
		},
	})
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	return NewAnalyzer(st), ds
}

func TestTypicalPatternsShape(t *testing.T) {
	an, ds := fixture(t)
	view, err := an.TypicalPatterns(context.Background(), TypicalConfig{Seed: 1, Method: reduce.MethodMDS})
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Points) != len(ds.Customers) {
		t.Fatalf("points = %d, want %d", len(view.Points), len(ds.Customers))
	}
	if len(view.MeterIDs) != len(view.Points) {
		t.Fatal("ids/points misaligned")
	}
	// Normalized to the unit square.
	for _, p := range view.Points {
		if p[0] < 0 || p[0] > 1 || p[1] < 0 || p[1] > 1 {
			t.Fatalf("point %v outside unit square", p)
		}
	}
	if view.FeatDim != 40 { // 40 daily buckets
		t.Errorf("feature dim = %d, want 40", view.FeatDim)
	}
}

func TestBrushSelectionAndProfile(t *testing.T) {
	an, _ := fixture(t)
	view, err := an.TypicalPatterns(context.Background(), TypicalConfig{Seed: 1, Method: reduce.MethodMDS})
	if err != nil {
		t.Fatal(err)
	}
	ids, rowIdx, err := view.SelectBrush(Brush{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(view.Points) {
		t.Fatalf("full brush selected %d of %d", len(ids), len(view.Points))
	}
	prof, err := view.Profile(rowIdx)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Mean) != view.FeatDim {
		t.Fatalf("profile dim = %d", len(prof.Mean))
	}
	// Empty brush errors.
	if _, _, err := view.SelectBrush(Brush{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3}); err != ErrEmptyBrush {
		t.Errorf("empty brush err = %v", err)
	}
	if _, err := view.Profile(nil); err != ErrEmptyBrush {
		t.Errorf("empty profile err = %v", err)
	}
}

func TestBrushContains(t *testing.T) {
	b := Brush{MinX: 0.2, MinY: 0.2, MaxX: 0.5, MaxY: 0.5}
	if !b.Contains([2]float64{0.3, 0.3}) {
		t.Error("interior point not contained")
	}
	if b.Contains([2]float64{0.6, 0.3}) {
		t.Error("exterior point contained")
	}
	if !b.Contains([2]float64{0.2, 0.5}) {
		t.Error("edge point not contained")
	}
}

func TestClassifyProfileDayShapes(t *testing.T) {
	mk := func(f func(h int) float64) []float64 {
		out := make([]float64, 24)
		for h := range out {
			out[h] = f(h)
		}
		return out
	}
	cases := []struct {
		name string
		prof []float64
		want PatternLabel
	}{
		{"idle", mk(func(h int) float64 { return 0.05 }), LabelIdle},
		{"constant high", mk(func(h int) float64 { return 3.2 }), LabelConstantHigh},
		{"early bird", mk(func(h int) float64 {
			if h == 6 {
				return 2
			}
			return 0.5
		}), LabelEarlyBird},
		{"evening household", mk(func(h int) float64 {
			if h >= 18 && h <= 21 {
				return 1.6
			}
			return 0.7
		}), LabelBimodal},
		{"energy saving", mk(func(h int) float64 {
			if h == 19 {
				return 0.5
			}
			return 0.3
		}), LabelEnergySaving},
	}
	for _, c := range cases {
		if got := ClassifyProfile(c.prof, query.GranHourly); got != c.want {
			t.Errorf("%s: label = %s, want %s", c.name, got, c.want)
		}
	}
	if ClassifyProfile(nil, query.GranDaily) != LabelUnknown {
		t.Error("empty profile should be unknown")
	}
}

func TestClassifyProfileBimodalYear(t *testing.T) {
	// 365 daily values with winter+summer humps.
	prof := make([]float64, 365)
	for d := range prof {
		prof[d] = 1.0
		if d < 60 || d >= 335 || (d >= 152 && d < 244) {
			prof[d] = 2.0
		}
	}
	if got := ClassifyProfile(prof, query.GranDaily); got != LabelBimodal {
		t.Errorf("yearly bimodal label = %s", got)
	}
}

func TestShiftPatternsBasics(t *testing.T) {
	an, ds := fixture(t)
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	res, err := an.ShiftPatterns(ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shift == nil || res.Density1 == nil || res.Density2 == nil {
		t.Fatal("missing fields")
	}
	if res.Meters != len(ds.Customers) {
		t.Errorf("meters = %d, want %d", res.Meters, len(ds.Customers))
	}
	if res.T1Window[1] <= res.T1Window[0] {
		t.Error("bad t1 window")
	}
	// Both densities share geometry with the shift field.
	if res.Shift.Cols != res.Density1.Cols {
		t.Error("geometry mismatch")
	}
}

func TestShiftPatternsSameBucketFails(t *testing.T) {
	an, ds := fixture(t)
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	if _, err := an.ShiftPatterns(ShiftConfig{
		T1: noon, T2: noon + 3600, Granularity: query.GranDaily,
	}); !errors.Is(err, ErrSameBucket) {
		t.Errorf("same-bucket anchors: err = %v, want ErrSameBucket", err)
	}
}

func TestShiftPatternsGradientMode(t *testing.T) {
	an, ds := fixture(t)
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	res, err := an.ShiftPatterns(ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly, OD: ODGradient,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) == 0 {
		t.Error("gradient mode produced no flows")
	}
}

func TestShiftPatternsIntensityQuantile(t *testing.T) {
	an, ds := fixture(t)
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	full, err := an.ShiftPatterns(ShiftConfig{T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly})
	if err != nil {
		t.Fatal(err)
	}
	band, err := an.ShiftPatterns(ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly,
		IntensityQuantile: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if band.Meters >= full.Meters {
		t.Errorf("quantile band kept %d of %d meters", band.Meters, full.Meters)
	}
}

func TestGranularitySweepCoversAll(t *testing.T) {
	an, ds := fixture(t)
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	gs, sums, err := an.GranularitySweep(ShiftConfig{T1: noon, T2: noon + 8*3600})
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != len(query.AllGranularities) || len(sums) != len(gs) {
		t.Fatalf("sweep covered %d granularities", len(gs))
	}
	// Hourly must detect a shift; yearly must merge (zero summary).
	if sums[0].L1 == 0 {
		t.Error("hourly sweep found no shift")
	}
	last := sums[len(sums)-1]
	if last.L1 != 0 {
		t.Error("yearly sweep should merge anchors in a 40-day dataset")
	}
}

func TestIntensitySweep(t *testing.T) {
	an, ds := fixture(t)
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	sums, err := an.IntensitySweep(
		ShiftConfig{T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly},
		[]float64{0.3, 0.6, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatalf("sweep results = %d", len(sums))
	}
}

func TestDailyProfileFeatureView(t *testing.T) {
	an, ds := fixture(t)
	view, err := an.TypicalPatterns(context.Background(), TypicalConfig{
		Seed: 1, Method: reduce.MethodMDS, UseDailyProfile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.FeatDim != 24 {
		t.Fatalf("daily profile dim = %d, want 24", view.FeatDim)
	}
	_ = ds
}

func TestShiftPatternsCustomKernelAndGrid(t *testing.T) {
	an, ds := fixture(t)
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	res, err := an.ShiftPatterns(ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly,
		GridCols: 32, GridRows: 24, Kernel: kde.KernelEpanechnikov, Bandwidth: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shift.Cols != 32 || res.Shift.Rows != 24 {
		t.Errorf("grid = %dx%d", res.Shift.Cols, res.Shift.Rows)
	}
	if res.Shift.Kernel != kde.KernelEpanechnikov {
		t.Errorf("kernel = %s", res.Shift.Kernel)
	}
}
