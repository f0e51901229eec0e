package query

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"vap/internal/geo"
	"vap/internal/store"
)

func TestFixedWidth(t *testing.T) {
	cases := map[Granularity]int64{
		GranHourly:    3600,
		Gran4Hourly:   14400,
		GranDaily:     86400,
		GranWeekly:    86400, // Monday 00:00 UTC starts: seven whole days
		GranMonthly:   86400, // variable width, always whole days
		GranQuarterly: 86400,
		GranYearly:    86400,
	}
	for g, want := range cases {
		if got := g.FixedWidth(); got != want {
			t.Errorf("%s.FixedWidth() = %d, want %d", g, got, want)
		}
		// The grid must really cut g's buckets: every bucket start of a few
		// years, pre-epoch included, is a multiple of the width.
		for ts := int64(-3 * 365 * 86400); ts < 3*365*86400; ts = g.Next(ts) {
			if start := g.Truncate(ts); mod(start, want) != 0 {
				t.Fatalf("%s bucket start %d is off the %ds grid", g, start, want)
			}
		}
	}
}

// buildTierPair loads the same messy series — uneven cadence with gaps;
// meter 1 finite and non-dyadic, so the last bits of a multi-day sum name
// its association, meter 2 with NaN and ±Inf readings — into a store without
// rollups and a store with the given tiers.
func buildTierPair(t *testing.T, tiers []int64) (raw, tier *store.Store, first, last int64) {
	t.Helper()
	open := func(res []int64) *store.Store {
		st, err := store.Open(store.Options{RollupRes: res})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	raw, tier = open([]int64{}), open(tiers)
	rng := rand.New(rand.NewSource(23))
	start := ts("2018-03-01 00:00")
	for _, m := range []store.Meter{
		{ID: 1, Location: geo.Point{Lon: 12.50, Lat: 55.60}, Zone: store.ZoneResidential},
		{ID: 2, Location: geo.Point{Lon: 12.51, Lat: 55.61}, Zone: store.ZoneCommercial},
	} {
		if err := raw.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		if err := tier.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		tsNow := start + m.ID*17
		n := 900 + rng.Intn(300) // ~6-8 days of 10-minute readings
		for i := 0; i < n; i++ {
			tsNow += 600 + int64(rng.Intn(200))*3 // uneven cadence with gaps
			v := float64(rng.Intn(40)) * 0.1
			if poison := rng.Intn(35); m.ID == 2 {
				switch poison {
				case 0:
					v = math.NaN()
				case 1:
					v = math.Inf(1)
				case 2:
					v = math.Inf(-1)
				}
			}
			smp := store.Sample{TS: tsNow, Value: v}
			if err := raw.Append(m.ID, smp); err != nil {
				t.Fatal(err)
			}
			if err := tier.Append(m.ID, smp); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, l, ok := raw.TimeBounds()
	if !ok {
		t.Fatal("empty store")
	}
	return raw, tier, f, l
}

// valueEqual treats two NaNs as equal (the tier path synthesizes its NaN
// rather than propagating a payload) and everything else bitwise.
func valueEqual(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestMeterSeriesTierMatchesRaw(t *testing.T) {
	raw, tier, first, last := buildTierPair(t, []int64{3600, 14400, 86400})
	rawEng, tierEng := NewEngineWorkers(raw, 0), NewEngineWorkers(tier, 0)
	const day = int64(86400)
	windows := []Selection{
		{},                                   // full extent
		{From: first + 777, To: last - 1313}, // unaligned edges
		{From: alignUp(first, day), To: alignUp(first, day) + day}, // one aligned day
		{From: first + 10, To: first + 400},                        // narrower than any tier bucket
	}
	for _, g := range AllGranularities {
		for _, fn := range []AggFunc{AggSum, AggMean, AggMin, AggMax} {
			for wi, sel := range windows {
				for _, id := range []int64{1, 2} {
					want, err := rawEng.MeterSeries(id, sel, g, fn)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tierEng.MeterSeries(id, sel, g, fn)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s/%s window %d meter %d: %d buckets, want %d", g, fn, wi, id, len(got), len(want))
					}
					for i := range got {
						if got[i].Start != want[i].Start || got[i].Count != want[i].Count || !valueEqual(got[i].Value, want[i].Value) {
							t.Fatalf("%s/%s window %d meter %d bucket %d:\n tier %+v\n raw  %+v", g, fn, wi, id, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// windowSum is one meter's unbucketed window fold's sum state, before
// AggFunc.Value finalizes it (so a non-finite sum is compared too), with the
// number of readings it covered.
func windowSum(t *testing.T, e *Engine, id, from, to int64) (float64, int64) {
	t.Helper()
	folds, err := e.windowFolds(context.Background(), []int64{id}, from, to)
	if err != nil {
		t.Fatal(err)
	}
	return folds[0].Sum, folds[0].Count + folds[0].NaN
}

func TestWindowFoldsTierMatchesRaw(t *testing.T) {
	raw, tier, first, last := buildTierPair(t, nil) // default tiers
	rawEng, tierEng := NewEngineWorkers(raw, 0), NewEngineWorkers(tier, 0)
	const hour, day = int64(3600), int64(86400)
	day1 := alignUp(first, day)
	windows := []struct {
		from, to, res int64 // res: the tier ServingTier must pick
	}{
		{first, last + 1, day},
		{first + 501, last - 2000, day},
		{day1 + 5*hour, day1 + 3*day + 7*hour, day}, // hour offsets on both sides
		{day1 - 3*hour, day1 + day + 2*hour, day},   // exactly one whole day
		{day1 + 2*hour + 7, day1 + 9*hour + 11, hour},
		{first + 10, first + 120, 0}, // too narrow for any tier: both decode raw
	}
	for wi, w := range windows {
		if res, _, _ := ServingTier(tier.RollupResolutions(), WholeWindow, w.from, w.to); res != w.res {
			t.Fatalf("window %d: served by the %ds tier, want %ds", wi, res, w.res)
		}
		for _, id := range []int64{1, 2} {
			wantSum, wantN := windowSum(t, rawEng, id, w.from, w.to)
			gotSum, gotN := windowSum(t, tierEng, id, w.from, w.to)
			if gotN != wantN {
				t.Fatalf("window %d meter %d: count %d, want %d", wi, id, gotN, wantN)
			}
			// Raw and the daily tier both merge day cells: bit-equal. Only
			// the hourly tier, serving a window that holds no whole day, adds
			// hourly subtotals and may differ in the last ulps — but an ±Inf
			// or NaN (+Inf + -Inf) sum must agree exactly there too.
			if w.res != hour || math.IsNaN(wantSum) || math.IsInf(wantSum, 0) {
				if !valueEqual(gotSum, wantSum) {
					t.Fatalf("window %d meter %d: sum %v, want %v", wi, id, gotSum, wantSum)
				}
			} else if diff := math.Abs(gotSum - wantSum); diff > 1e-9*math.Max(1, math.Abs(wantSum)) {
				t.Fatalf("window %d meter %d: sum %v, want %v (diff %g)", wi, id, gotSum, wantSum, diff)
			}
		}
	}
}

// TestDemandSnapshotTierConsistency runs a density endpoint end to end on
// the paired stores: the normalized weights must agree within float noise.
func TestDemandSnapshotTierConsistency(t *testing.T) {
	raw, tier, first, last := buildTierPair(t, nil)
	rawEng, tierEng := NewEngineWorkers(raw, 0), NewEngineWorkers(tier, 0)
	want, err := rawEng.DemandSnapshot(Selection{}, first, last+1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tierEng.DemandSnapshot(Selection{}, first, last+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].MeterID != want[i].MeterID {
			t.Fatalf("point %d meter %d, want %d", i, got[i].MeterID, want[i].MeterID)
		}
		if diff := math.Abs(got[i].Weight - want[i].Weight); diff > 1e-9 {
			t.Fatalf("point %d weight %v, want %v", i, got[i].Weight, want[i].Weight)
		}
	}
}
