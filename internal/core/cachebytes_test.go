package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vap/internal/exec"
	"vap/internal/gen"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/vql"
)

// monthAnalyzer is the default 460-meter city over 31 days.
func monthAnalyzer(t *testing.T) (*Analyzer, *gen.Dataset) {
	t.Helper()
	ds := gen.Generate(gen.Config{Seed: 1, Days: 31})
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	return NewAnalyzerOpts(st, Options{Workers: 2}), ds
}

// retained builds a value and returns it with the live-heap bytes it keeps
// reachable: HeapAlloc after a collection, before and after, with two
// collections each side so that sync.Pool scratch the build returned is
// freed too.
func retained(build func() exec.Sizer) (exec.Sizer, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return v, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestCacheChargeMatchesHeap: the cache's charge for its two largest
// kinds, computed from lengths, is within ±25 % of the live heap the value
// holds: the scan workload's 40,320-row 3-column export and an analyst's
// 460 x 365 TypicalView.
func TestCacheChargeMatchesHeap(t *testing.T) {
	an, ds := monthAnalyzer(t)
	ctx := context.Background()
	start := ds.Start.Unix()

	ids := make([]string, 56)
	for i := range ids {
		ids[i] = fmt.Sprint(ds.Customers[i].Meter.ID)
	}
	q, err := vql.Parse(fmt.Sprintf("SELECT bucket(hourly), meter, sum(value) FROM meters WHERE meter IN (%s) AND time >= %d AND time < %d GROUP BY bucket(hourly), meter",
		strings.Join(ids, ", "), start, start+30*86400))
	if err != nil {
		t.Fatal(err)
	}
	p, err := vql.Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	scanIDs, err := vql.ResolveScanMeters(an.Engine(), p)
	if err != nil {
		t.Fatal(err)
	}
	export := func() exec.Sizer {
		res, err := vql.ExecuteResolved(ctx, an.Engine(), p, scanIDs, start, start+30*86400, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	all, err := an.Engine().ResolveMeters(query.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	view := func() exec.Sizer {
		v, err := an.computeTypical(ctx, TypicalConfig{
			Selection:   query.Selection{MeterIDs: all, From: start, To: start + 365*3600},
			Granularity: query.GranHourly, Method: reduce.MethodMDS, Metric: reduce.MetricPearson,
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	for _, tc := range []struct {
		name  string
		build func() exec.Sizer
		check func(exec.Sizer) error
	}{
		{"export", export, func(v exec.Sizer) error {
			if r := v.(*vql.Result); len(r.Rows) != 40320 || len(r.Columns) != 3 {
				return fmt.Errorf("export is %d x %d, want 40320 x 3", len(r.Rows), len(r.Columns))
			}
			return nil
		}},
		{"typical view", view, func(v exec.Sizer) error {
			if tv := v.(*TypicalView); len(tv.MeterIDs) != 460 || tv.FeatDim != 365 {
				return fmt.Errorf("view is %d x %d, want 460 x 365", len(tv.MeterIDs), tv.FeatDim)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.build() // warm: lazily built state is not the value's
			v, live := retained(tc.build)
			if err := tc.check(v); err != nil {
				t.Fatal(err)
			}
			charge := v.CacheBytes()
			if ratio := float64(charge) / float64(live); ratio < 0.75 || ratio > 1.25 {
				t.Fatalf("charged %d bytes for %d live: ratio %.2f, want within ±25 %%", charge, live, ratio)
			}
			t.Logf("charged %d bytes for %d live (%.2f)", charge, live, float64(charge)/float64(live))
		})
	}
}

// TestCachedKindsCharged: every kind the analyzer memoizes is charged its
// own bytes on top of one fixed per-entry cost, so none of them is cached
// for free.
func TestCachedKindsCharged(t *testing.T) {
	an, ds := fixture(t)
	var entry int64 // the per-entry cost, the same for every kind
	ctx := context.Background()
	start := ds.Start.Unix()
	id := ds.Customers[0].Meter.ID
	sel := query.Selection{From: start, To: start + 7*86400}
	for _, tc := range []struct {
		name string
		run  func() (exec.Sizer, error)
	}{
		{"vql", func() (exec.Sizer, error) {
			out, err := an.VQL(ctx, fmt.Sprintf("SELECT bucket(daily), sum(value) FROM meters WHERE time >= %d AND time < %d GROUP BY bucket(daily)", sel.From, sel.To))
			if err != nil {
				return nil, err
			}
			return out.Result, nil
		}},
		{"typical", func() (exec.Sizer, error) {
			return an.TypicalPatterns(ctx, TypicalConfig{Method: reduce.MethodMDS})
		}},
		{"series", func() (exec.Sizer, error) {
			bs, err := an.SelectionSeries(ctx, sel, query.GranDaily)
			return buckets(bs), err
		}},
		{"meter-series", func() (exec.Sizer, error) {
			bs, err := an.MeterSeries(ctx, id, sel, query.GranHourly, query.AggSum)
			return buckets(bs), err
		}},
		{"shift", func() (exec.Sizer, error) {
			return an.ShiftPatternsCtx(ctx, ShiftConfig{T1: start + 8*3600, T2: start + 20*3600})
		}},
		{"density", func() (exec.Sizer, error) {
			return an.DemandDensity(ctx, query.Selection{}, sel.From, sel.To, kde.Config{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := an.Exec().Bytes()
			v, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if v.CacheBytes() <= 0 {
				t.Fatalf("%s charges %d bytes", tc.name, v.CacheBytes())
			}
			over := an.Exec().Bytes() - before - v.CacheBytes()
			if entry == 0 {
				entry = over
			}
			if over <= 0 || over != entry {
				t.Fatalf("cache grew by the value's %d bytes and %d more, want %d more", v.CacheBytes(), over, entry)
			}
		})
	}
}

// TestDashboardWorkingSetStaysCached: a dashboard's 48 statements (zone
// totals, a meter list's daily profile, one meter's hourly week and a
// bbox's day totals, twelve of each) fill the cache once and then hit on
// every pass.
func TestDashboardWorkingSetStaysCached(t *testing.T) {
	an, ds := monthAnalyzer(t)
	ctx := context.Background()
	start := ds.Start.Unix()
	box := an.Store().Catalog().Bounds()
	aggs := []string{"sum(value), count(*)", "mean(value)", "min(value), max(value)", "sum(value)", "max(value)", "mean(value), count(*)"}
	var stmts []string
	for j := 0; j < 12; j++ {
		agg := aggs[j%len(aggs)]
		from := start + int64(j)*86400
		window := fmt.Sprintf("time >= %d AND time < %d", from, from+14*86400)
		zone := []string{"residential", "commercial"}[j/len(aggs)]
		list := make([]string, 8)
		for i := range list {
			list[i] = fmt.Sprint(ds.Customers[8*j+i].Meter.ID)
		}
		stmts = append(stmts,
			fmt.Sprintf("SELECT zone, %s FROM meters WHERE zone = '%s' AND %s GROUP BY zone", agg, zone, window),
			fmt.Sprintf("SELECT bucket(daily), %s FROM meters WHERE meter IN (%s) AND %s GROUP BY bucket(daily)", agg, strings.Join(list, ", "), window),
			fmt.Sprintf("SELECT bucket(hourly), %s FROM meters WHERE meter = %d AND time >= %d AND time < %d GROUP BY bucket(hourly)", agg, ds.Customers[j].Meter.ID, from, from+7*86400),
			fmt.Sprintf("SELECT bucket(daily), %s FROM meters WHERE bbox(%g, %g, %g, %g) AND %s GROUP BY bucket(daily)", agg, box.Min.Lon, box.Min.Lat, box.Max.Lon, box.Max.Lat, window),
		)
	}
	for _, s := range stmts {
		out, err := an.VQL(ctx, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if len(out.Rows) == 0 {
			t.Fatalf("%s: no rows", s)
		}
	}
	filled := an.ExecStats()
	if filled.Computes != 48 || an.Exec().Len() != 48 {
		t.Fatalf("48 distinct statements computed %d times into %d entries", filled.Computes, an.Exec().Len())
	}
	for pass := 0; pass < 3; pass++ {
		for _, s := range stmts {
			if _, err := an.VQL(ctx, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := an.ExecStats(); st.Computes != filled.Computes || st.Hits-filled.Hits != 3*48 || st.Evictions != 0 {
		t.Fatalf("warm passes were not all hits: %+v -> %+v", filled, st)
	}
	t.Logf("48 statements hold %d cached bytes", an.Exec().Bytes())
}

// TestOneEntryPerSelection: the cache keeps one entry a task, and the
// resolved meters are part of the task. Two meters' series over one window
// stay cached side by side; an append replaces only its meter's entry.
func TestOneEntryPerSelection(t *testing.T) {
	an, ds := fixture(t)
	ctx := context.Background()
	a, b := ds.Customers[0].Meter.ID, ds.Customers[1].Meter.ID
	sel := query.Selection{From: ds.Start.Unix(), To: ds.Start.Unix() + 3*86400}
	series := func(id int64) {
		t.Helper()
		if _, err := an.MeterSeries(ctx, id, sel, query.GranHourly, query.AggSum); err != nil {
			t.Fatal(err)
		}
	}
	series(a)
	series(b)
	series(a)
	series(b)
	if st := an.ExecStats(); st.Computes != 2 || an.Exec().Len() != 2 {
		t.Fatalf("two meters: %d computes, %d entries; want 2, 2", st.Computes, an.Exec().Len())
	}
	_, last, _ := an.Store().Bounds(a)
	if err := an.Store().Append(a, store.Sample{TS: last + 3600, Value: 1}); err != nil {
		t.Fatal(err)
	}
	series(a)
	series(b)
	if st := an.ExecStats(); st.Computes != 3 || an.Exec().Len() != 2 || st.Evictions != 0 {
		t.Fatalf("after an append to one meter: %+v, %d entries; want 3 computes in 2 entries", st, an.Exec().Len())
	}
}
