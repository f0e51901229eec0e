package core

import (
	"context"
	"reflect"
	"testing"

	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

// TestDailyProfileViewSkipsMatrix: the daily-profile view resolves its
// meters without building the bucketed matrix it never used, and is the
// view that pipeline gave — the matrix's row order, 24 features, and the
// points reduced from the per-meter profiles.
func TestDailyProfileViewSkipsMatrix(t *testing.T) {
	an, _ := fixture(t)
	ctx := context.Background()
	for _, sel := range []query.Selection{
		{},
		{Zone: store.ZoneResidential},
		{MeterIDs: []int64{9, 3, 27, 14, 5}},
	} {
		cfg := TypicalConfig{Selection: sel, Seed: 1, Method: reduce.MethodMDS, UseDailyProfile: true}
		view, err := an.TypicalPatterns(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}

		ids, _, _, err := an.Engine().MeterMatrixCtx(ctx, sel, query.GranDaily, query.AggMean)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := dailyProfiles(ctx, an.Engine(), ids, sel)
		if err != nil {
			t.Fatal(err)
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
}
