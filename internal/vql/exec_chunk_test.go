package vql

import (
	"context"
	"reflect"
	"testing"

	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/store"
)

// TestFanOutChunkGrid sweeps every (meter count, engine workers) pair of
// the grid 1..200 x 1..16 through ExecuteResolved. Rounding the chunk size
// up leaves trailing chunks empty for many sizes (34 meters in 8 chunks of
// 5: chunk 7 is ids[35:34]), which used to panic; every split must scan
// every meter exactly once and produce the rows of the sequential scan.
// The engine's matrix, window totals and day profiles go through the same
// driver, and must not move with the worker count either.
func TestFanOutChunkGrid(t *testing.T) {
	const (
		maxMeters  = 200
		maxWorkers = 16
		perMeter   = 700 // 200 meters reach the 16-worker fan-out floor
	)
	// No rollup tiers: the daily tier would serve the weekly plan below from
	// ~30 buckets a meter, too little work for any grid point to fan out.
	st, err := store.Open(store.Options{RollupRes: []int64{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ids := make([]int64, maxMeters)
	for i := range ids {
		id := int64(i + 1)
		ids[i] = id
		zone := []store.ZoneType{store.ZoneResidential, store.ZoneCommercial, store.ZoneIndustrial}[i%3]
		if err := st.PutMeter(store.Meter{ID: id, Location: geo.Point{Lon: 10, Lat: 55}, Zone: zone}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < perMeter; s++ {
			// Non-dyadic values so a changed merge order would show in sum.
			v := float64(id)*0.1 + float64(s)*0.37
			if err := st.Append(id, store.Sample{TS: base + int64(s)*3600, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	engines := make([]*query.Engine, maxWorkers+1)
	for w := 1; w <= maxWorkers; w++ {
		engines[w] = query.NewEngineWorkers(st, w)
	}
	// The scan decodes raw samples (through day cells) and fans out. All
	// meters share the weekly buckets: the sums fold across meters, so the
	// rows also pin the merge order, and count(*) a double scan.
	p := compilePlan(t, `select bucket(weekly), sum(value), count(*) from meters group by bucket(weekly)`)
	from, to, ok := p.ResolveWindow(st)
	ctx := context.Background()
	fanned := 0
	for n := 1; n <= maxMeters; n++ {
		sel := ids[:n]
		ref, err := ExecuteResolved(ctx, engines[1], p, sel, from, to, ok)
		if err != nil {
			t.Fatalf("n=%d sequential: %v", n, err)
		}
		if ref.Samples != n*perMeter {
			t.Fatalf("n=%d sequential scanned %d samples, want %d", n, ref.Samples, n*perMeter)
		}
		// The split depends only on the planned (workers, chunks)
		// pair; run each distinct one once.
		seen := map[[2]int]bool{{1, 1}: true}
		for w := 2; w <= maxWorkers; w++ {
			cost, _ := planScan(p, st.SeriesStats(sel), from, to, w, st.RollupResolutions())
			split := [2]int{cost.Workers, cost.Chunks}
			if seen[split] {
				continue
			}
			seen[split] = true
			fanned++
			got, err := ExecuteResolved(ctx, engines[w], p, sel, from, to, ok)
			if err != nil {
				t.Fatalf("n=%d workers=%d chunks=%d: %v", n, w, cost.Chunks, err)
			}
			// Samples counts every scanned sample, and the fingerprint
			// folds each meter's version, which stays 0 for a meter no
			// chunk visited: together, each id scanned exactly once.
			if got.Samples != ref.Samples || got.Fingerprint != ref.Fingerprint {
				t.Fatalf("n=%d workers=%d chunks=%d: samples/fingerprint %d/%#x, sequential %d/%#x",
					n, w, cost.Chunks, got.Samples, got.Fingerprint, ref.Samples, ref.Fingerprint)
			}
			if !reflect.DeepEqual(got.Rows, ref.Rows) {
				t.Fatalf("n=%d workers=%d chunks=%d: rows differ from the sequential scan", n, w, cost.Chunks)
			}
		}
	}
	if fanned == 0 {
		t.Fatal("no grid point fanned out; the fixture is too small to test the split")
	}

	// The engine splits n meters into min(4*workers, n) runs: 34 meters at
	// 2 workers are 8 runs of 5, the last one empty; 200 at 16 are 64 of 4.
	wfrom, wto, err := engines[1].TimeWindow(query.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	type engineOut struct {
		ids, times []int64
		matrix     [][]float64
		totals     map[int64]float64
		profiles   [][]float64
	}
	engineRun := func(eng *query.Engine, sel []int64) engineOut {
		var o engineOut
		var err error
		if o.ids, o.times, o.matrix, err = eng.MeterMatrixCtx(ctx, query.Selection{MeterIDs: sel}, query.GranHourly, query.AggMean); err != nil {
			t.Fatal(err)
		}
		if o.totals, err = eng.TotalByMeterCtx(ctx, query.Selection{MeterIDs: sel}); err != nil {
			t.Fatal(err)
		}
		if o.profiles, err = eng.DayProfilesCtx(ctx, sel, wfrom, wto); err != nil {
			t.Fatal(err)
		}
		return o
	}
	for _, n := range []int{1, 34, 200} {
		want := engineRun(engines[1], ids[:n])
		if len(want.matrix) != n || len(want.totals) != n || len(want.profiles) != n {
			t.Fatalf("n=%d: %d matrix rows, %d totals, %d profiles", n, len(want.matrix), len(want.totals), len(want.profiles))
		}
		for w := 2; w <= maxWorkers; w++ {
			if got := engineRun(engines[w], ids[:n]); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: engine outputs differ from one worker's", n, w)
			}
		}
	}

	// Grouping by meter or zone keeps one slab of states per base key: a
	// fanned-out scan hands the sink each meter's private partial to keep,
	// the sequential scan has it copy the states out of the chunk's
	// scratch. Both must give the scalar oracle's rows in the oracle's
	// order at every worker count — also when the meter set arrives
	// descending and names a meter twice, which no planner would send but
	// the exported ExecuteResolved accepts.
	shuffled := make([]int64, 0, maxMeters+1)
	for i := maxMeters - 1; i >= 0; i-- {
		shuffled = append(shuffled, ids[i])
	}
	shuffled = append(shuffled, ids[maxMeters/2])
	for _, src := range []string{
		`select meter, bucket(weekly), sum(value), count(*) from meters group by meter, bucket(weekly)`,
		`select bucket(weekly), zone, sum(value), count(*) from meters group by bucket(weekly), zone`,
		`select meter, zone, sum(value) from meters group by meter, zone limit 7`,
	} {
		p := compilePlan(t, src)
		for _, sel := range [][]int64{ids, shuffled} {
			want, err := ExecuteResolvedScalar(ctx, engines[1], p, sel, from, to, ok)
			if err != nil {
				t.Fatal(err)
			}
			for w := 1; w <= maxWorkers; w++ {
				got, err := ExecuteResolved(ctx, engines[w], p, sel, from, to, ok)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", src, w, err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s workers=%d first id %d: rows differ from the scalar oracle's", src, w, sel[0])
				}
			}
		}
	}
}
