package vql

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/store"
)

// newNaNEngine builds a two-meter store where meter 1 mixes finite and NaN
// readings and meter 2 holds only NaN readings.
func newNaNEngine(t *testing.T) *query.Engine {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	meters := []store.Meter{
		{ID: 1, Location: geo.Point{Lon: 10.1, Lat: 55.6}, Zone: store.ZoneResidential},
		{ID: 2, Location: geo.Point{Lon: 10.2, Lat: 55.7}, Zone: store.ZoneResidential},
	}
	for _, m := range meters {
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
	}
	nan := math.NaN()
	for h, v := range []float64{1, nan, 3} {
		if err := st.Append(1, store.Sample{TS: base + int64(h)*3600, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < 3; h++ {
		if err := st.Append(2, store.Sample{TS: base + int64(h)*3600, Value: nan}); err != nil {
			t.Fatal(err)
		}
	}
	return query.NewEngineWorkers(st, 2)
}

// TestNaNDoesNotPoisonAggregates: a single bad reading must not poison a
// group's aggregates. NaN samples are skipped by the value folds but still
// counted by count(*), and a group with no finite samples finalizes its
// value aggregates to null. Regression test for the NaN-poisoning bug where
// one stored NaN turned a whole bucket's sum/mean/min/max into NaN (which
// then had no JSON encoding).
func TestNaNDoesNotPoisonAggregates(t *testing.T) {
	eng := newNaNEngine(t)

	res := run(t, eng, `select sum(value), avg(value), min(value), max(value), count(*) from meters where meter in (1)`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0] != 4.0 || row[1] != 2.0 || row[2] != 1.0 || row[3] != 3.0 {
		t.Errorf("aggregates = %v, want [4 2 1 3 _]", row)
	}
	if row[4] != int64(3) {
		t.Errorf("count(*) = %v, want 3 (NaN rows still count)", row[4])
	}

	// All-NaN group: mean/min/max are null, sum folds zero finite samples
	// to 0, count(*) still counts every reading.
	res = run(t, eng, `select sum(value), avg(value), min(value), max(value), count(*) from meters where meter in (2)`)
	row = res.Rows[0]
	if row[0] != 0.0 {
		t.Errorf("all-NaN sum = %v, want 0", row[0])
	}
	for i, name := range []string{"avg", "min", "max"} {
		if row[i+1] != nil {
			t.Errorf("all-NaN %s = %v, want null", name, row[i+1])
		}
	}
	if row[4] != int64(3) {
		t.Errorf("all-NaN count(*) = %v, want 3", row[4])
	}

	// count(value) counts only finite samples, unlike count(*).
	res = run(t, eng, `select count(*), count(value) from meters where meter in (1)`)
	row = res.Rows[0]
	if row[0] != int64(3) || row[1] != int64(2) {
		t.Errorf("count(*), count(value) = %v, %v, want 3, 2", row[0], row[1])
	}
	res = run(t, eng, `select count(*), count(value) from meters where meter in (2)`)
	row = res.Rows[0]
	if row[0] != int64(3) || row[1] != int64(0) {
		t.Errorf("all-NaN count(*), count(value) = %v, %v, want 3, 0", row[0], row[1])
	}

	// Every cell must be JSON-encodable — NaN would fail to marshal.
	if _, err := json.Marshal(res.Rows); err != nil {
		t.Errorf("rows are not JSON-encodable: %v", err)
	}
}

// TestResolveScanMetersPreservesSelection: filtering out unknown meter ids
// must not compact into the selection's backing array — the plan (and any
// caller-owned id slice lowered into it) stays intact for re-execution.
func TestResolveScanMetersPreservesSelection(t *testing.T) {
	eng := newTestEngine(t)
	q, err := Parse(`select count(*) from meters where meter in (4, 99, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int64(nil), p.Sel.MeterIDs...)

	ids, err := ResolveScanMeters(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 4}; !reflect.DeepEqual(ids, want) {
		t.Errorf("scan meters = %v, want %v (unknown id filtered)", ids, want)
	}
	if !reflect.DeepEqual(p.Sel.MeterIDs, before) {
		t.Errorf("selection mutated by resolve: %v, was %v", p.Sel.MeterIDs, before)
	}
	// Idempotent: a second resolve over the same plan sees the same set.
	again, err := ResolveScanMeters(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, ids) {
		t.Errorf("second resolve = %v, want %v", again, ids)
	}
}

// messyValue draws one reading of the differential fixtures: non-dyadic,
// and on even meters 3 in 40 of them NaN or ±Inf (poisoning must be the raw
// fold's). Odd meters stay finite, so their multi-day sums are numbers whose
// last bits name the association that built them — with an Inf in every
// meter, every such sum is ±Inf or NaN and any association passes. The
// draws do not depend on id, so a meter's timestamps don't either.
func messyValue(rng *rand.Rand, id int64) float64 {
	v, poison := rng.NormFloat64()*1000, rng.Intn(40)
	if id%2 != 0 {
		return v
	}
	switch poison {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	}
	return v
}

func compilePlan(t testing.TB, src string) *Plan {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanScanCostModel exercises the planner's estimates and physical
// choices directly against synthetic statistics.
func TestPlanScanCostModel(t *testing.T) {
	const hour = int64(3600)
	// Two regular hourly series of 100 samples over the same extent.
	stats := []store.SeriesStats{
		{MeterID: 1, Samples: 100, Blocks: 2, MinTS: 0, MaxTS: 99 * hour, CompressedBytes: 1000},
		{MeterID: 2, Samples: 100, Blocks: 2, MinTS: 0, MaxTS: 99 * hour, CompressedBytes: 1000},
	}

	t.Run("overlap fraction", func(t *testing.T) {
		p := compilePlan(t, `select count(*) from meters`)
		// Window covering roughly half of each extent.
		c, _ := planScan(p, stats, 0, 50*hour, 4, nil)
		if c.EstSamples < 80 || c.EstSamples > 120 {
			t.Errorf("EstSamples = %d, want ~100 (half of 200)", c.EstSamples)
		}
		if c.Buckets != 0 {
			t.Errorf("buckets = %d, want none without a bucket key", c.Buckets)
		}
		// Tiny scan: fan-out is not worth a goroutine per meter.
		if c.Workers != 1 || c.Chunks != 1 {
			t.Errorf("workers/chunks = %d/%d, want 1/1 for a tiny scan", c.Workers, c.Chunks)
		}
	})

	t.Run("non-overlapping series drop out", func(t *testing.T) {
		p := compilePlan(t, `select count(*) from meters`)
		c, _ := planScan(p, stats, 200*hour, 300*hour, 4, nil)
		if c.EstSamples != 0 || c.EstBlocks != 0 {
			t.Errorf("est = %d samples / %d blocks, want 0/0 outside the extent", c.EstSamples, c.EstBlocks)
		}
	})

	t.Run("dense grouping for enumerable buckets", func(t *testing.T) {
		p := compilePlan(t, `select bucket(hourly), sum(value) from meters group by bucket(hourly)`)
		c, bounds := planScan(p, stats, 0, 10*hour, 4, nil)
		if c.Buckets != 10 || len(bounds) != 10 {
			t.Errorf("buckets = %d (bounds %d), want 10", c.Buckets, len(bounds))
		}
	})

	t.Run("dense past 65536 buckets and refused past the cap", func(t *testing.T) {
		p := compilePlan(t, `select bucket(hourly), sum(value) from meters group by bucket(hourly)`)
		for _, n := range []int{1<<16 + 2, 1 << 20} {
			c, bounds := planScan(p, stats, 0, int64(n)*hour, 4, nil)
			if c.Refused != nil || c.Buckets != n || len(bounds) != n {
				t.Errorf("%d buckets: refused = %v, buckets = %d (bounds %d), want dense over all of them",
					n, c.Refused, c.Buckets, len(bounds))
			}
		}
		c, bounds := planScan(p, stats, 0, (1<<20+1)*hour, 4, nil)
		if !errors.Is(c.Refused, query.ErrWindowTooWide) || bounds != nil {
			t.Errorf("2^20+1 buckets: refused = %v (bounds %d), want ErrWindowTooWide and no axis", c.Refused, len(bounds))
		}
		if got := groupingStr(p, &c); !strings.Contains(got, "refused") || !strings.Contains(got, "window too wide") {
			t.Errorf("grouping line of a refused plan = %q", got)
		}
		// An empty window is not a wide one.
		if c, _ := planScan(p, stats, 0, 0, 4, nil); c.Refused != nil || c.Buckets != 0 {
			t.Errorf("empty window: refused = %v, buckets = %d, want none of either", c.Refused, c.Buckets)
		}
	})

	t.Run("fanout scales with estimated samples", func(t *testing.T) {
		big := []store.SeriesStats{
			{MeterID: 1, Samples: 50000, Blocks: 49, MinTS: 0, MaxTS: 49999 * hour, CompressedBytes: 300000},
			{MeterID: 2, Samples: 50000, Blocks: 49, MinTS: 0, MaxTS: 49999 * hour, CompressedBytes: 300000},
		}
		p := compilePlan(t, `select count(*) from meters`)
		c, _ := planScan(p, big, 0, 50000*hour, 8, nil)
		if c.Workers != 2 {
			t.Errorf("workers = %d, want 2 (capped at meter count)", c.Workers)
		}
		if c.Chunks != 2 {
			t.Errorf("chunks = %d, want 2 (4x over-partition capped at meters)", c.Chunks)
		}
	})
}

func TestBucketBounds(t *testing.T) {
	const hour = int64(3600)
	// Mid-bucket from: the first bound is the truncated start.
	b := query.BucketBounds(query.GranHourly, base+1800, base+3*hour, 100)
	want := []int64{base, base + hour, base + 2*hour}
	if !reflect.DeepEqual(b, want) {
		t.Errorf("bounds = %v, want %v", b, want)
	}
	// Calendar granularity: walks real month lengths.
	b = query.BucketBounds(query.GranMonthly, base, base+40*24*hour, 100)
	if len(b) != 2 || b[0] != base { // 2017-06-01 is a month start
		t.Errorf("monthly bounds = %v, want [Jun Jul]", b)
	}
	// Over the cap (both via the width pre-check and the walk) → nil.
	if b := query.BucketBounds(query.GranHourly, 0, int64(200)*hour, 100); b != nil {
		t.Errorf("over-cap bounds = %v, want nil", b)
	}
	// Degenerate window → nil.
	if b := query.BucketBounds(query.GranHourly, 10, 10, 100); b != nil {
		t.Errorf("empty-window bounds = %v, want nil", b)
	}
}

// TestVectorizedMatchesScalar is the differential property test: random
// stores (irregular timestamps, multi-block series, NaN/±Inf readings) and
// a spread of grouping shapes must produce byte-identical results from the
// vectorized executor and the sample-at-a-time reference executor —
// including float cells, which both executors fold in the same order.
func TestVectorizedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	zones := []store.ZoneType{store.ZoneResidential, store.ZoneCommercial, store.ZoneIndustrial}

	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	const nMeters = 6
	var maxTS int64
	for id := int64(1); id <= nMeters; id++ {
		m := store.Meter{
			ID:       id,
			Location: geo.Point{Lon: 10 + rng.Float64(), Lat: 55 + rng.Float64()},
			Zone:     zones[rng.Intn(len(zones))],
		}
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		// Meter 1 spans several compressed blocks; the rest stay small so
		// chunk/fan-out boundaries land unevenly.
		n := 200 + rng.Intn(300)
		if id == 1 {
			n = 3000
		}
		ts := base
		for s := 0; s < n; s++ {
			ts += 60 + int64(rng.Intn(7200)) // irregular ascending gaps
			v := messyValue(rng, id)
			if err := st.Append(id, store.Sample{TS: ts, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
		if ts > maxTS {
			maxTS = ts
		}
	}
	// Sparse meters, so the per-meter slabs cover different bucket ranges:
	// 7 reports only at the start of the extent, 8 only at its end (their
	// touched ranges are disjoint), and 9 is registered but never reported —
	// in every window a meter with no sample.
	for _, m := range []struct{ id, at, n int64 }{{7, base, 40}, {8, maxTS - 40*3600, 40}, {9, 0, 0}} {
		if err := st.PutMeter(store.Meter{ID: m.id, Location: geo.Point{Lon: 10.5, Lat: 55.5}, Zone: zones[m.id%3]}); err != nil {
			t.Fatal(err)
		}
		for s := int64(0); s < m.n; s++ {
			if err := st.Append(m.id, store.Sample{TS: m.at + s*3500, Value: float64(m.id) + 0.1*float64(s)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng := query.NewEngineWorkers(st, 4)

	queries := []string{
		`select count(*), count(value), sum(value) from meters`,
		`select bucket(daily), zone, sum(value), count(*) from meters group by bucket(daily), zone`,
		`select meter, bucket(hourly), sum(value) from meters group by meter, bucket(hourly) limit 5`,
		`select meter, bucket(hourly), sum(value) from meters group by meter, bucket(hourly) order by 3 desc, meter limit 5`,
		`select zone, bucket(weekly), max(value) from meters group by zone, bucket(weekly) limit 5`,
		`select count(*) from meters limit 0`,
		`select bucket(hourly), sum(value), count(*) from meters group by bucket(hourly)`,
		`select bucket(daily), avg(value), min(value), max(value) from meters group by bucket(daily)`,
		`select meter, bucket(daily), sum(value) from meters group by meter, bucket(daily)`,
		`select zone, avg(value) from meters group by zone`,
		`select meter, zone, max(value), count(*) from meters group by meter, zone`,
		`select bucket(weekly), sum(value) from meters where zone = 'residential' group by bucket(weekly)`,
		`select bucket(hourly), min(value) from meters where meter in (1, 3, 5) group by bucket(hourly)`,
		// Finite sums over every day-cell axis, per meter and across meters.
		`select meter, bucket(weekly), sum(value), avg(value) from meters group by meter, bucket(weekly)`,
		`select bucket(monthly), sum(value), min(value) from meters where meter in (1, 3, 5, 7, 8) group by bucket(monthly)`,
		`select zone, bucket(quarterly), sum(value) from meters where meter in (1, 3, 5, 7, 8) group by zone, bucket(quarterly)`,
		`select bucket(yearly), avg(value) from meters where meter in (1, 3, 5) group by bucket(yearly)`,
		`select bucket('4hourly'), sum(value) from meters where meter in (1, 3, 5) group by bucket('4hourly')`,
		`select meter, sum(value), avg(value) from meters group by meter`,
		`select sum(value) from meters where meter in (5, 3, 1)`,
	}

	for _, src := range queries {
		p := compilePlan(t, src)
		// Sweep windows: full extent plus random sub-windows, so batch
		// clamping and block pruning both get exercised.
		windows := [][2]int64{{0, 0}} // 0,0 = resolve from data extent
		for w := 0; w < 4; w++ {
			lo := base + rng.Int63n(maxTS-base)
			hi := lo + 1 + rng.Int63n(maxTS-lo)
			windows = append(windows, [2]int64{lo, hi})
		}
		// One window of more than 65,536 hourly buckets, nearly all of them
		// before the first sample: the width that used to leave the dense
		// bucket array for a hash grouping, and no longer does.
		const wideBuckets = 1<<16 + 1
		windows = append(windows, [2]int64{base - wideBuckets*3600, maxTS + 1})
		for _, win := range windows {
			if win[0] != 0 {
				p.HasFrom, p.From = true, win[0]
				p.HasTo, p.To = true, win[1]
			}
			asc, err := ResolveScanMeters(eng, p)
			if err != nil {
				t.Fatal(err)
			}
			from, to, ok := p.ResolveWindow(eng.Store())
			cost := EstimateScan(eng, p, asc, from, to)
			wideHourly := win[0] == base-wideBuckets*3600 && p.Granularity() == query.GranHourly
			if p.hasBucket && (cost.Buckets == 0 || cost.Refused != nil) || wideHourly && cost.Buckets <= wideBuckets {
				t.Errorf("%s win=%v: planned %d buckets (refused: %v), want dense", src, win, cost.Buckets, cost.Refused)
			}

			// ExecuteResolved is exported: the meter set may arrive in any
			// order and name a meter twice (it is then scanned twice, by both
			// executors). No sort repairs the row order afterwards, so the
			// rows are compared in order, as DeepEqual does.
			desc := make([]int64, 0, len(asc)+1)
			for i := len(asc) - 1; i >= 0; i-- {
				desc = append(desc, asc[i])
			}
			if len(asc) > 0 {
				desc = append(desc, asc[len(asc)/2])
			}
			for _, ids := range [][]int64{asc, desc} {
				vec, err := ExecuteResolved(context.Background(), eng, p, ids, from, to, ok)
				if err != nil {
					t.Fatalf("%s win=%v: vectorized: %v", src, win, err)
				}
				ref, err := ExecuteResolvedScalar(context.Background(), eng, p, ids, from, to, ok)
				if err != nil {
					t.Fatalf("%s win=%v: scalar: %v", src, win, err)
				}
				// The Plan rendering legitimately differs; everything else
				// must agree bit-for-bit.
				vec.Plan, ref.Plan = "", ""
				if !reflect.DeepEqual(vec, ref) {
					t.Errorf("%s win=%v ids=%v: executors diverge:\nvec: %+v\nref: %+v", src, win, ids, vec, ref)
				}
			}
		}
	}

	// Past 2^20 buckets there is no layout to compare: the statement is
	// refused before any meter is opened (id 99 is not registered — an
	// iterator on it would fail with store.ErrUnknownMeter instead).
	p := compilePlan(t, `select bucket(hourly), count(*) from meters group by bucket(hourly)`)
	res, err := ExecuteResolved(context.Background(), eng, p, []int64{99, 1}, base, base+(1<<20+1)*3600, true)
	if res != nil || !errors.Is(err, query.ErrWindowTooWide) {
		t.Errorf("2^20+1 hourly buckets: res = %v, err = %v, want no result and ErrWindowTooWide", res, err)
	}
}
