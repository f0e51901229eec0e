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

// parityStore loads one random dataset — irregular gaps, NaN and ±Inf
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
			if bad := rng.Intn(60); id%2 == 0 {
				switch bad {
				case 0:
					v = math.Inf(1)
				case 1:
					v = math.Inf(-1)
				case 2, 3:
					v = math.NaN()
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
// one finalization rule (query.AggFunc.Value) over one kernel, whichever of
// the two decides to serve from a tier: a bucketed VQL row with a value is
// the Engine.MeterSeries bucket with the same start, bits and count(*), and
// a null row has no bucket; a MeterMatrix cell is the (meter, bucket) row's
// value, or 0; TotalByMeter is the unbucketed per-meter sum, or 0 — the
// engine serves it from the daily tier, VQL folds it raw, both through day
// cells.
func TestEngineMatchesVQL(t *testing.T) {
	const day = int64(86400)
	vqlFn := map[query.AggFunc]string{query.AggSum: "sum", query.AggMean: "mean", query.AggMin: "min", query.AggMax: "max"}
	nulls := 0
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
							label := fmt.Sprintf("tiers %v seed %d window %d: %s", tiers, seed, wi, src)
							k := 0 // the next MeterSeries bucket; both sides ascend
							for i, row := range run(t, eng, src).Rows {
								v, valued := row[1].(float64)
								switch {
								case !valued && k < len(got) && got[k].Start == row[0].(int64):
									t.Fatalf("%s\n row %d: VQL null, MeterSeries %+v", label, i, got[k])
								case !valued:
									nulls++
								case k == len(got):
									t.Fatalf("%s\n row %d: VQL %v, MeterSeries has no bucket", label, i, row)
								case got[k].Start != row[0].(int64) || int64(got[k].Count) != row[2].(int64) || math.Float64bits(v) != math.Float64bits(got[k].Value):
									t.Fatalf("%s\n row %d: MeterSeries %+v, VQL %v", label, i, got[k], row)
								default:
									k++
								}
							}
							if k != len(got) {
								t.Fatalf("%s\n MeterSeries has %d buckets, VQL %d valued rows", label, len(got), k)
							}
						}
					}
				}
				for _, g := range []query.Granularity{query.GranWeekly, query.GranMonthly} {
					for fn, name := range vqlFn {
						_, times, rows, err := eng.MeterMatrix(sel, g, fn)
						if err != nil {
							t.Fatal(err)
						}
						col := map[int64]int{}
						for j, ts := range times {
							col[ts] = j
						}
						src := fmt.Sprintf(`SELECT meter, bucket('%s'), %s(value) FROM meters WHERE meter IN (1, 2, 3, 4)%s GROUP BY meter, bucket('%s')`, g, name, where, g)
						for _, row := range run(t, eng, src).Rows {
							// The matrix rows are meters 1..4 ascending.
							got := rows[row[0].(int64)-1][col[row[1].(int64)]]
							if v, _ := row[2].(float64); math.Float64bits(v) != math.Float64bits(got) {
								t.Fatalf("tiers %v seed %d window %d: %s\n meter %d bucket %d: MeterMatrix %v, VQL %v", tiers, seed, wi, src, row[0], row[1], got, row[2])
							}
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
					if v, _ := sums[id].(float64); math.Float64bits(v) != math.Float64bits(tot) {
						t.Fatalf("tiers %v seed %d window %d meter %d: TotalByMeter %v, VQL %v", tiers, seed, wi, id, tot, sums[id])
					}
				}
			}
		}
	}
	if nulls == 0 {
		t.Fatal("no VQL row was null: the fixture no longer exercises a bucket without a value")
	}
}
