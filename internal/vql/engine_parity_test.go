package vql

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/store"
)

// parityStore loads one random NaN-free dataset — irregular gaps, ±Inf
// readings in the even meters (the odd ones stay finite, so their multi-day
// sums tell one association from another), one multi-chunk meter, one meter
// with a handful of readings — into a store maintaining the given tiers.
func parityStore(t *testing.T, seed int64, tiers []int64) (eng *query.Engine, first, last int64) {
	t.Helper()
	st, err := store.Open(store.Options{Shards: 4, RollupRes: tiers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(seed))
	for id := int64(1); id <= 4; id++ {
		if err := st.PutMeter(store.Meter{ID: id, Location: geo.Point{Lon: 10 + rng.Float64(), Lat: 55 + rng.Float64()}, Zone: store.ZoneResidential}); err != nil {
			t.Fatal(err)
		}
		n, gap := 600+rng.Intn(300), int64(600)
		switch id {
		case 1:
			n = 5000 // many sealed chunks
		case 4:
			n, gap = 6, 40*86400 // sparse: a reading every month or so
		}
		ts := base + id*13
		for s := 0; s < n; s++ {
			ts += 60 + rng.Int63n(gap)
			if rng.Intn(50) == 0 {
				ts += rng.Int63n(3 * 86400) // an outage
			}
			v := rng.NormFloat64() * 1000
			if inf := rng.Intn(60); id%2 == 0 {
				switch inf {
				case 0:
					v = math.Inf(1)
				case 1:
					v = math.Inf(-1)
				}
			}
			if err := st.Append(id, store.Sample{TS: ts, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, last, _ = st.TimeBounds()
	return query.NewEngineWorkers(st, 4), first, last
}

// TestEngineMatchesVQL pins that the paper pipeline's calls and VQL are
// two finalizers over one kernel: on NaN-free data Engine.MeterSeries
// equals the matching bucketed VQL statement bit for bit (VQL renders a
// non-finite aggregate as null), whichever of the two decides to serve
// from a tier, MeterMatrix holds the (meter, bucket) rows' values, and
// TotalByMeter equals the unbucketed per-meter sum — the engine serves it
// from the daily tier, VQL folds it raw, both through day cells.
func TestEngineMatchesVQL(t *testing.T) {
	const day = int64(86400)
	vqlFn := map[query.AggFunc]string{query.AggSum: "sum", query.AggMean: "mean", query.AggMin: "min", query.AggMax: "max"}
	for _, tiers := range [][]int64{{}, {3600, 14400, 86400}} {
		for seed := int64(1); seed <= 3; seed++ {
			eng, first, last := parityStore(t, seed, tiers)
			aligned := (first/day + 2) * day
			windows := []query.Selection{
				{},                                   // data extent
				{From: aligned, To: aligned + 5*day}, // aligned to every tier
				{From: aligned - 4321, To: aligned + 3*day + 7}, // raw edges either side
				{From: first + 100, To: first + 1700},           // narrower than any bucket
				{From: last - 40*day, To: last + 40*day},        // runs past the data
				{From: first - 70000*3600, To: last + 1},        // more than 65,536 hourly buckets
			}
			for wi, sel := range windows {
				where := ""
				if sel.From != 0 || sel.To != 0 {
					where = fmt.Sprintf(" AND time >= %d AND time < %d", sel.From, sel.To)
				}
				for _, g := range query.AllGranularities {
					for fn, name := range vqlFn {
						for id := int64(1); id <= 4; id++ {
							got, err := eng.MeterSeries(id, sel, g, fn)
							if err != nil {
								t.Fatal(err)
							}
							src := fmt.Sprintf(`SELECT bucket('%s'), %s(value), count(*) FROM meters WHERE meter = %d%s GROUP BY bucket('%s')`, g, name, id, where, g)
							want := run(t, eng, src).Rows
							label := fmt.Sprintf("tiers %v seed %d window %d: %s", tiers, seed, wi, src)
							if len(got) != len(want) {
								t.Fatalf("%s\n MeterSeries has %d buckets, VQL %d rows", label, len(got), len(want))
							}
							for i, b := range got {
								row := want[i]
								if b.Start != row[0].(int64) || int64(b.Count) != row[2].(int64) {
									t.Fatalf("%s\n bucket %d: MeterSeries %+v, VQL %v", label, i, b, row)
								}
								if v, finite := row[1].(float64); finite {
									if math.Float64bits(v) != math.Float64bits(b.Value) {
										t.Fatalf("%s\n bucket %d: MeterSeries %v, VQL %v", label, i, b.Value, v)
									}
								} else if !math.IsNaN(b.Value) && !math.IsInf(b.Value, 0) {
									t.Fatalf("%s\n bucket %d: MeterSeries %v, VQL null", label, i, b.Value)
								}
							}
						}
					}
				}
				for _, g := range []query.Granularity{query.GranWeekly, query.GranMonthly} {
					_, times, rows, err := eng.MeterMatrix(sel, g, query.AggSum)
					if err != nil {
						t.Fatal(err)
					}
					col := map[int64]int{}
					for j, ts := range times {
						col[ts] = j
					}
					src := fmt.Sprintf(`SELECT meter, bucket('%s'), sum(value) FROM meters WHERE meter IN (1, 2, 3, 4)%s GROUP BY meter, bucket('%s')`, g, where, g)
					for _, row := range run(t, eng, src).Rows {
						// The matrix rows are meters 1..4 ascending.
						got := rows[row[0].(int64)-1][col[row[1].(int64)]]
						if v, finite := row[2].(float64); finite && math.Float64bits(v) != math.Float64bits(got) ||
							!finite && !math.IsNaN(got) && !math.IsInf(got, 0) {
							t.Fatalf("tiers %v seed %d window %d: %s\n meter %d bucket %d: MeterMatrix %v, VQL %v", tiers, seed, wi, src, row[0], row[1], got, row[2])
						}
					}
				}
				totals, err := eng.TotalByMeterCtx(context.Background(), sel)
				if err != nil {
					t.Fatal(err)
				}
				src := `SELECT meter, sum(value) FROM meters WHERE meter IN (1, 2, 3, 4)` + where + ` GROUP BY meter`
				sums := map[int64]any{} // VQL has no row for a meter without in-window readings
				for _, row := range run(t, eng, src).Rows {
					sums[row[0].(int64)] = row[1]
				}
				for id, tot := range totals {
					cell, has := sums[id]
					switch v, finite := cell.(float64); {
					case !has:
						if tot != 0 {
							t.Fatalf("window %d meter %d: TotalByMeter %v, VQL has no row", wi, id, tot)
						}
					case finite:
						if math.Float64bits(v) != math.Float64bits(tot) {
							t.Fatalf("window %d meter %d: TotalByMeter %v, VQL %v", wi, id, tot, v)
						}
					case !math.IsNaN(tot) && !math.IsInf(tot, 0):
						t.Fatalf("window %d meter %d: TotalByMeter %v, VQL null", wi, id, tot)
					}
				}
			}
		}
	}
}
