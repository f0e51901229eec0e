package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

// TestTypicalPatternsMemoized asserts the versioned-cache contract:
// repeated identical calls on an unchanged store compute once and return
// the same view, and a store append invalidates the entry.
func TestTypicalPatternsMemoized(t *testing.T) {
	an, ds := fixture(t)
	ctx := context.Background()
	cfg := TypicalConfig{Seed: 3, Method: reduce.MethodMDS}

	v1, err := an.TypicalPatterns(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != 1 {
		t.Fatalf("computes after first call = %d, want 1", got)
	}
	v2, err := an.TypicalPatterns(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != 1 {
		t.Fatalf("identical repeat recomputed: computes = %d, want 1", got)
	}
	if v1 != v2 {
		t.Fatal("repeat did not return the cached view")
	}
	if an.ExecStats().Hits == 0 {
		t.Fatal("repeat did not count as a cache hit")
	}

	// A different config must compute separately.
	if _, err := an.TypicalPatterns(ctx, TypicalConfig{Seed: 4, Method: reduce.MethodMDS}); err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != 2 {
		t.Fatalf("distinct config did not compute: computes = %d, want 2", got)
	}

	// An append bumps the data version and invalidates the cached view.
	id := ds.Customers[0].Meter.ID
	_, last, _ := an.Store().Bounds(id)
	if err := an.Store().Append(id, store.Sample{TS: last + 3600, Value: 1.5}); err != nil {
		t.Fatal(err)
	}
	v3, err := an.TypicalPatterns(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != 3 {
		t.Fatalf("append did not invalidate: computes = %d, want 3", got)
	}
	if v3 == v1 {
		t.Fatal("stale view returned after store append")
	}
}

// TestShiftPatternsMemoized mirrors the contract for the flow-map path,
// including bucket-anchor canonicalization: two anchors in the same bucket
// share a cache entry.
func TestShiftPatternsMemoized(t *testing.T) {
	an, ds := fixture(t)
	ctx := context.Background()
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	cfg := ShiftConfig{T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly}

	r1, err := an.ShiftPatternsCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := an.ExecStats().Computes
	r2, err := an.ShiftPatternsCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != base {
		t.Fatalf("identical repeat recomputed: computes = %d, want %d", got, base)
	}
	if r1 != r2 {
		t.Fatal("repeat did not return the cached result")
	}

	// Same 4-hour buckets, different instants: must hit the same entry.
	shifted := cfg
	shifted.T1 += 1800
	shifted.T2 += 900
	r3, err := an.ShiftPatternsCtx(ctx, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatal("anchors in the same buckets missed the cache")
	}

	// Append invalidates.
	id := ds.Customers[0].Meter.ID
	_, lastTS, _ := an.Store().Bounds(id)
	if err := an.Store().Append(id, store.Sample{TS: lastTS + 3600, Value: 2}); err != nil {
		t.Fatal(err)
	}
	r4, err := an.ShiftPatternsCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Fatal("stale flow map returned after store append")
	}
	if got := an.ExecStats().Computes; got <= base {
		t.Fatalf("append did not trigger recompute: computes = %d", got)
	}
}

// TestConcurrentIdenticalRequestsSingleflight asserts in-flight
// deduplication: N concurrent identical requests on a cold cache run the
// pipeline once.
func TestConcurrentIdenticalRequestsSingleflight(t *testing.T) {
	an, _ := fixture(t)
	ctx := context.Background()
	cfg := TypicalConfig{Seed: 5, Method: reduce.MethodMDS}
	const callers = 12
	views := make([]*TypicalView, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := an.TypicalPatterns(ctx, cfg)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			views[i] = v
		}(i)
	}
	wg.Wait()
	if got := an.ExecStats().Computes; got != 1 {
		t.Fatalf("concurrent identical requests computed %d times, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if views[i] != views[0] {
			t.Fatalf("caller %d got a different view instance", i)
		}
	}
}

// TestSelectionScopedInvalidation is the streaming-cache contract of the
// sharded store: an append to meter A invalidates only cached views whose
// selections contain A. Views over disjoint selections keep hitting.
func TestSelectionScopedInvalidation(t *testing.T) {
	an, ds := fixture(t)
	ctx := context.Background()

	// Two disjoint halves of the population by explicit meter IDs, over an
	// explicit time window: a zero window resolves to the store-wide data
	// extent, which legitimately moves (and must invalidate) when any
	// meter receives newer samples.
	var selA, selB query.Selection
	selA.From, selA.To = ds.Start.Unix(), ds.Start.Unix()+30*86400
	selB.From, selB.To = selA.From, selA.To
	for i, c := range ds.Customers {
		if i%2 == 0 {
			selA.MeterIDs = append(selA.MeterIDs, c.Meter.ID)
		} else {
			selB.MeterIDs = append(selB.MeterIDs, c.Meter.ID)
		}
	}
	cfgA := TypicalConfig{Selection: selA, Seed: 7, Method: reduce.MethodMDS}
	cfgB := TypicalConfig{Selection: selB, Seed: 7, Method: reduce.MethodMDS}

	vA, err := an.TypicalPatterns(ctx, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := an.TypicalPatterns(ctx, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	warm := an.ExecStats().Computes

	// Append to a meter inside selection A only.
	mutated := selA.MeterIDs[0]
	_, last, _ := an.Store().Bounds(mutated)
	if err := an.Store().Append(mutated, store.Sample{TS: last + 3600, Value: 2}); err != nil {
		t.Fatal(err)
	}

	// B's selection excludes the mutated meter: still a cache hit.
	vB2, err := an.TypicalPatterns(ctx, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != warm {
		t.Fatalf("disjoint selection recomputed after unrelated append: computes %d -> %d", warm, got)
	}
	if vB2 != vB {
		t.Fatal("disjoint selection did not return the cached view")
	}

	// A's selection contains the mutated meter: must miss and recompute.
	vA2, err := an.TypicalPatterns(ctx, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != warm+1 {
		t.Fatalf("selection containing mutated meter did not recompute: computes = %d, want %d", got, warm+1)
	}
	if vA2 == vA {
		t.Fatal("stale view returned for the mutated selection")
	}
}

// TestSelectionScopedInvalidationDensity covers the same contract on the
// DemandDensity path used by the heat-map renders during streaming ingest.
func TestSelectionScopedInvalidationDensity(t *testing.T) {
	an, ds := fixture(t)
	ctx := context.Background()

	var selA, selB query.Selection
	for i, c := range ds.Customers {
		if i%2 == 0 {
			selA.MeterIDs = append(selA.MeterIDs, c.Meter.ID)
		} else {
			selB.MeterIDs = append(selB.MeterIDs, c.Meter.ID)
		}
	}
	from := ds.Start.Unix()
	to := from + 86400

	if _, err := an.DemandDensity(ctx, selA, from, to, kde.Config{Cols: 32, Rows: 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := an.DemandDensity(ctx, selB, from, to, kde.Config{Cols: 32, Rows: 32}); err != nil {
		t.Fatal(err)
	}
	warm := an.ExecStats().Computes

	mutated := selA.MeterIDs[0]
	_, last, _ := an.Store().Bounds(mutated)
	if err := an.Store().Append(mutated, store.Sample{TS: last + 3600, Value: 2}); err != nil {
		t.Fatal(err)
	}

	if _, err := an.DemandDensity(ctx, selB, from, to, kde.Config{Cols: 32, Rows: 32}); err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != warm {
		t.Fatalf("disjoint density recomputed: computes %d -> %d", warm, got)
	}
	if _, err := an.DemandDensity(ctx, selA, from, to, kde.Config{Cols: 32, Rows: 32}); err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != warm+1 {
		t.Fatalf("mutated density selection did not recompute: computes = %d, want %d", got, warm+1)
	}
}

// TestDefaultWindowInvalidatedByExtentGrowth is the counterpart contract:
// a view over the *default* (zero) time window resolves to the store-wide
// data extent, so an append that extends the extent — even to a meter
// outside the selection — changes the bucket axis and must recompute.
func TestDefaultWindowInvalidatedByExtentGrowth(t *testing.T) {
	an, ds := fixture(t)
	ctx := context.Background()

	// Selection B: second half of the population, default window.
	var selB query.Selection
	for i, c := range ds.Customers {
		if i%2 == 1 {
			selB.MeterIDs = append(selB.MeterIDs, c.Meter.ID)
		}
	}
	cfgB := TypicalConfig{Selection: selB, Seed: 7, Method: reduce.MethodMDS}
	if _, err := an.TypicalPatterns(ctx, cfgB); err != nil {
		t.Fatal(err)
	}
	warm := an.ExecStats().Computes

	// Append to a meter OUTSIDE B, beyond the current global extent.
	outside := ds.Customers[0].Meter.ID
	_, last, ok := an.Store().TimeBounds()
	if !ok {
		t.Fatal("no data")
	}
	if err := an.Store().Append(outside, store.Sample{TS: last + 86400, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := an.TypicalPatterns(ctx, cfgB); err != nil {
		t.Fatal(err)
	}
	if got := an.ExecStats().Computes; got != warm+1 {
		t.Fatalf("extent growth did not invalidate the default-window view: computes = %d, want %d", got, warm+1)
	}
}

// TestMeterSeriesAdmittedAndMemoized: one meter's series takes the views'
// lifecycle — the engine's buckets, memoized per meter under its version,
// an aggregate checked before it reaches the plan text, and a window over
// the memory budget refused before anything is scanned.
func TestMeterSeriesAdmittedAndMemoized(t *testing.T) {
	an, ds := fixture(t)
	ctx := context.Background()
	id := ds.Customers[0].Meter.ID
	sel := query.Selection{From: ds.Start.Unix() + 86400, To: ds.Start.Unix() + 9*86400}
	want, err := an.Engine().MeterSeries(id, sel, query.GranHourly, query.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.MeterSeries(ctx, id, sel, query.GranHourly, query.AggSum)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("series differs from the engine's (%v)", err)
	}
	if _, err := an.MeterSeries(ctx, id, sel, query.GranHourly, query.AggSum); err != nil || an.ExecStats().Computes != 1 {
		t.Fatalf("identical repeat: computes = %d, want 1 (%v)", an.ExecStats().Computes, err)
	}
	if _, err := an.MeterSeries(ctx, ds.Customers[1].Meter.ID, sel, query.GranHourly, query.AggSum); err != nil || an.ExecStats().Computes != 2 {
		t.Fatalf("another meter: computes = %d, want 2 (%v)", an.ExecStats().Computes, err)
	}
	if _, err := an.MeterSeries(ctx, id, sel, query.GranHourly, "sum(value) FROM meters --"); !errors.Is(err, query.ErrInput) {
		t.Fatalf("unknown aggregate: %v, want ErrInput", err)
	}

	small := NewAnalyzerOpts(an.Store(), Options{Gov: govern.New(govern.Config{MemBudget: 4 << 20})})
	var ce *govern.CostError
	if _, err := small.MeterSeries(ctx, id, query.Selection{From: 1}, query.GranHourly, query.AggMean); !errors.As(err, &ce) {
		t.Fatalf("hourly series from 1970 under a 4 MiB budget: %v, want a cost refusal", err)
	}
	if got := small.ExecStats().Computes; got != 0 {
		t.Fatalf("refused series computed %d times", got)
	}
}
