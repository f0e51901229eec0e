package vql

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/store"
)

// TestRollupMatchesRaw is the tier-serving differential property test: two
// stores load byte-identical random data — irregular gaps, NaN/±Inf
// readings in the even meters, finite non-dyadic ones in the odd (so a
// multi-day sum's last bits name its association), multi-chunk series — one
// with rollups disabled and one maintaining hourly, 4-hourly and daily tiers.
// Every query × window combination must produce bit-identical results from
// both, including windows straddling tier bucket edges by a few seconds or
// hours (the partial-bucket raw edge decode), and the tier store must
// actually plan a tier for every bucketed granularity — asserted, so the test
// cannot silently decay into comparing two raw scans. The second start puts
// the data astride ts 0, where a day-cell end taken with % instead of
// alignDown lands a day late.
func TestRollupMatchesRaw(t *testing.T) {
	t.Run("2017", func(t *testing.T) { rollupMatchesRaw(t, base) })
	t.Run("pre-epoch", func(t *testing.T) { rollupMatchesRaw(t, -9*86400-4321) })
}

func rollupMatchesRaw(t *testing.T, start int64) {
	rng := rand.New(rand.NewSource(11))
	zones := []store.ZoneType{store.ZoneResidential, store.ZoneCommercial, store.ZoneIndustrial}

	open := func(res []int64) *store.Store {
		st, err := store.Open(store.Options{RollupRes: res})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	rawSt := open([]int64{})                    // rollups disabled
	tierSt := open([]int64{3600, 14400, 86400}) // hourly, 4-hourly, daily

	const nMeters = 5
	var maxTS int64 = math.MinInt64
	for id := int64(1); id <= nMeters; id++ {
		m := store.Meter{
			ID:       id,
			Location: geo.Point{Lon: 10 + rng.Float64(), Lat: 55 + rng.Float64()},
			Zone:     zones[rng.Intn(len(zones))],
		}
		if err := rawSt.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		if err := tierSt.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		// Dense enough that the planner's cost gate favors the tiers
		// (several samples per hourly bucket); meter 1 spans many sealed
		// chunks and two and a half weeks, so the edge decode crosses chunk
		// boundaries and the weekly buckets hold several days.
		n := 400 + rng.Intn(300)
		if id == 1 {
			n = 4000
		}
		ts := start
		for s := 0; s < n; s++ {
			ts += 60 + int64(rng.Intn(600)) // irregular ascending gaps
			smp := store.Sample{TS: ts, Value: messyValue(rng, id)}
			if err := rawSt.Append(id, smp); err != nil {
				t.Fatal(err)
			}
			if err := tierSt.Append(id, smp); err != nil {
				t.Fatal(err)
			}
		}
		if ts > maxTS {
			maxTS = ts
		}
	}
	rawEng := query.NewEngineWorkers(rawSt, 4)
	tierEng := query.NewEngineWorkers(tierSt, 4)

	queries := []struct {
		src  string
		tier bool // the full-extent plan must serve from a tier
	}{
		{`select bucket(hourly), sum(value), count(*), count(value) from meters group by bucket(hourly)`, true},
		{`select bucket('4hourly'), avg(value), min(value), max(value) from meters group by bucket('4hourly')`, true},
		{`select bucket(daily), sum(value), avg(value), min(value), max(value), count(*) from meters group by bucket(daily)`, true},
		{`select meter, bucket(hourly), sum(value) from meters group by meter, bucket(hourly)`, true},
		{`select zone, bucket(daily), sum(value), count(*) from meters group by zone, bucket(daily)`, true},
		{`select bucket(daily), min(value) from meters where meter in (1, 3, 5) group by bucket(daily)`, true},
		// Weeks (Monday-phased) and the calendar units (variable width) are
		// whole numbers of UTC days: the daily tier serves them all.
		{`select bucket(weekly), sum(value) from meters group by bucket(weekly)`, true},
		{`select bucket(monthly), sum(value) from meters group by bucket(monthly)`, true},
		{`select meter, bucket(weekly), sum(value), avg(value), max(value) from meters group by meter, bucket(weekly)`, true},
		{`select bucket(monthly), sum(value), count(*) from meters where meter in (1, 3, 5) group by bucket(monthly)`, true},
		{`select zone, bucket(quarterly), sum(value), min(value) from meters group by zone, bucket(quarterly)`, true},
		{`select bucket(yearly), avg(value) from meters where meter in (1, 3, 5) group by bucket(yearly)`, true},
		// Bucket-less scans fold through day cells too, but plan raw.
		{`select count(*), sum(value), min(value) from meters`, false},
		{`select meter, sum(value) from meters group by meter`, false},
	}

	alignUp := func(ts, w int64) int64 {
		if r := ((ts % w) + w) % w; r != 0 {
			return ts + w - r
		}
		return ts
	}
	// Windows: full extent, random sub-windows, and per tier width a window
	// straddling aligned bucket edges by a few seconds, one narrower than a
	// single aligned bucket, and one exactly aligned (no edge decode).
	windows := [][2]int64{{0, 0}} // 0,0 = resolve from the data extent
	for w := 0; w < 4; w++ {
		lo := start + rng.Int63n(maxTS-start)
		hi := lo + 1 + rng.Int63n(maxTS-lo)
		windows = append(windows, [2]int64{lo, hi})
	}
	for _, width := range []int64{3600, 14400, 86400} {
		edge := alignUp(start, width) + 3*width
		windows = append(windows,
			[2]int64{edge - 7, edge + 2*width + 13},
			[2]int64{edge + 1, edge + width},
			[2]int64{edge, edge + 2*width},
		)
	}
	// Hour-offset edges on both sides of nine whole days and of exactly one,
	// and 41 hours that hold no whole day: day-or-wider buckets decode raw.
	const hour, day = int64(3600), int64(86400)
	day0 := alignUp(start, day)
	windows = append(windows,
		[2]int64{day0 + 5*hour, day0 + 10*day + 7*hour},
		[2]int64{day0 + day - 3*hour, day0 + 2*day + 2*hour},
	)
	noDay := len(windows)
	windows = append(windows, [2]int64{day0 + 3*hour, day0 + day + 20*hour})

	for _, q := range queries {
		p := compilePlan(t, q.src)
		for wi, win := range windows {
			if wi != 0 {
				p.HasFrom, p.From = true, win[0]
				p.HasTo, p.To = true, win[1]
			}
			exec1 := func(eng *query.Engine) *Result {
				ids, err := ResolveScanMeters(eng, p)
				if err != nil {
					t.Fatalf("%s win=%v: resolve: %v", q.src, win, err)
				}
				from, to, ok := p.ResolveWindow(eng.Store())
				res, err := ExecuteResolved(context.Background(), eng, p, ids, from, to, ok)
				if err != nil {
					t.Fatalf("%s win=%v: execute: %v", q.src, win, err)
				}
				return res
			}
			raw, tier := exec1(rawEng), exec1(tierEng)
			if !strings.Contains(raw.Plan, "raw scan") {
				t.Errorf("%s win=%v: rollup-disabled store served a tier:\n%s", q.src, win, raw.Plan)
			}
			if wi == 0 {
				if served := strings.Contains(tier.Plan, "rollup serves"); served != q.tier {
					t.Errorf("%s: full-extent tier serving = %t, want %t:\n%s", q.src, served, q.tier, tier.Plan)
				}
			}
			if wi == noDay && p.hasBucket && p.Granularity().FixedWidth() == day &&
				!strings.Contains(tier.Plan, "raw scan (window narrower than one tier bucket)") {
				t.Errorf("%s win=%v holds no whole day, want a raw plan:\n%s", q.src, win, tier.Plan)
			}
			// The Plan rendering legitimately differs (tier line); every
			// other field — float cells, sample counts, snapshot-version
			// fingerprints — must agree bit-for-bit.
			raw.Plan, tier.Plan = "", ""
			if !reflect.DeepEqual(raw, tier) {
				t.Errorf("%s win=%v: tier result diverges from raw:\nraw:  %+v\ntier: %+v", q.src, win, raw, tier)
			}
		}
	}
}

// TestPlanTierDecisions drives every branch of the planner's tier-selection
// rule against synthetic statistics.
func TestPlanTierDecisions(t *testing.T) {
	const hour = int64(3600)
	// A dense series: 86400 samples over 100 days — 36/hour, so tier
	// serving wins whenever it is admissible.
	stats := []store.SeriesStats{
		{MeterID: 1, Samples: 86400, Blocks: 120, MinTS: 0, MaxTS: 100 * 24 * hour, CompressedBytes: 500000},
	}
	window := func(p *Plan, from, to int64, tiers []int64) ScanCost {
		c, _ := planScan(p, stats, from, to, 4, tiers)
		return c
	}
	full := 100 * 24 * hour

	t.Run("serves exact-width tier", func(t *testing.T) {
		p := compilePlan(t, `select bucket(hourly), sum(value) from meters group by bucket(hourly)`)
		c := window(p, 0, full, []int64{3600, 86400})
		if c.TierRes != 3600 {
			t.Fatalf("TierRes = %d (%s), want 3600", c.TierRes, c.TierReason)
		}
		if c.TierBuckets == 0 {
			t.Errorf("TierBuckets = 0, want an interior estimate")
		}
	})
	t.Run("no tiers maintained", func(t *testing.T) {
		p := compilePlan(t, `select bucket(hourly), sum(value) from meters group by bucket(hourly)`)
		c := window(p, 0, full, nil)
		if c.TierRes != 0 || !strings.Contains(c.TierReason, "no rollup tiers") {
			t.Errorf("got TierRes=%d reason=%q", c.TierRes, c.TierReason)
		}
	})
	t.Run("no bucket dimension", func(t *testing.T) {
		p := compilePlan(t, `select sum(value) from meters`)
		c := window(p, 0, full, []int64{3600})
		if c.TierRes != 0 || !strings.Contains(c.TierReason, "no bucket dimension") {
			t.Errorf("got TierRes=%d reason=%q", c.TierRes, c.TierReason)
		}
	})
	t.Run("weekly is not tier-aligned", func(t *testing.T) {
		// The name is history: a week is seven whole UTC days, so the daily
		// tier serves it, and without one the refusal names the daily tier.
		p := compilePlan(t, `select bucket(weekly), sum(value) from meters group by bucket(weekly)`)
		c := window(p, 0, full, []int64{3600, 86400})
		if c.TierRes != 86400 || c.TierBuckets != 100 {
			t.Errorf("got TierRes=%d (%s) TierBuckets=%d, want the 86400 tier over 100 days", c.TierRes, c.TierReason, c.TierBuckets)
		}
		c = window(p, 0, full, []int64{3600})
		if c.TierRes != 0 || !strings.Contains(c.TierReason, "no 86400s tier maintained") {
			t.Errorf("got TierRes=%d reason=%q", c.TierRes, c.TierReason)
		}
	})
	t.Run("missing resolution", func(t *testing.T) {
		p := compilePlan(t, `select bucket(daily), sum(value) from meters group by bucket(daily)`)
		c := window(p, 0, full, []int64{3600}) // no 86400 tier
		if c.TierRes != 0 || !strings.Contains(c.TierReason, "no 86400s tier") {
			t.Errorf("got TierRes=%d reason=%q", c.TierRes, c.TierReason)
		}
	})
	t.Run("window narrower than a bucket", func(t *testing.T) {
		p := compilePlan(t, `select bucket(daily), sum(value) from meters group by bucket(daily)`)
		c := window(p, 10, 86395, []int64{86400}) // inside one day, unaligned
		if c.TierRes != 0 || !strings.Contains(c.TierReason, "narrower than one tier bucket") {
			t.Errorf("got TierRes=%d reason=%q", c.TierRes, c.TierReason)
		}
	})
	t.Run("sparse data keeps raw", func(t *testing.T) {
		sparse := []store.SeriesStats{
			// One sample every 4 hours: hourly tier buckets outnumber samples.
			{MeterID: 1, Samples: 600, Blocks: 1, MinTS: 0, MaxTS: 600 * 4 * hour, CompressedBytes: 4000},
		}
		p := compilePlan(t, `select bucket(hourly), sum(value) from meters group by bucket(hourly)`)
		c, _ := planScan(p, sparse, 0, 600*4*hour, 4, []int64{3600})
		if c.TierRes != 0 || !strings.Contains(c.TierReason, "not worth it") {
			t.Errorf("got TierRes=%d reason=%q", c.TierRes, c.TierReason)
		}
	})
	t.Run("fanout sizes on tier effort", func(t *testing.T) {
		// Many dense meters: a raw scan would fan out wide, but the tier
		// reads ~2400 buckets total, well under one worker's quantum.
		many := make([]store.SeriesStats, 8)
		for i := range many {
			many[i] = store.SeriesStats{MeterID: int64(i + 1), Samples: 86400, Blocks: 120, MinTS: 0, MaxTS: full, CompressedBytes: 500000}
		}
		p := compilePlan(t, `select bucket(daily), sum(value) from meters group by bucket(daily)`)
		c, _ := planScan(p, many, 0, full, 8, []int64{86400})
		if c.TierRes != 86400 {
			t.Fatalf("TierRes = %d (%s), want 86400", c.TierRes, c.TierReason)
		}
		if c.Workers != 1 {
			t.Errorf("workers = %d, want 1 (fan-out sized on tier effort, not raw samples)", c.Workers)
		}
	})
}

// TestExplainShowsTier: EXPLAIN output carries the tier line in both the
// serving and the raw case, naming the reason for the latter.
func TestExplainShowsTier(t *testing.T) {
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.PutMeter(store.Meter{ID: 1, Location: geo.Point{Lon: 10.1, Lat: 55.6}, Zone: store.ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	// Four days of one-minute readings: dense enough for the daily tier.
	batch := make([]store.Sample, 4*1440)
	for i := range batch {
		batch[i] = store.Sample{TS: base + int64(i)*60, Value: float64(i % 7)}
	}
	if _, err := st.AppendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngineWorkers(st, 2)

	p := compilePlan(t, `select bucket(daily), sum(value) from meters group by bucket(daily)`)
	out := ExplainString(p, eng)
	if !strings.Contains(out, "tier: 86400s rollup serves daily buckets: est 3 tier buckets") {
		t.Errorf("explain missing serving tier line:\n%s", out)
	}

	p = compilePlan(t, `select bucket(weekly), sum(value) from meters group by bucket(weekly)`)
	out = ExplainString(p, eng)
	if !strings.Contains(out, "tier: 86400s rollup serves weekly buckets: est 3 tier buckets") {
		t.Errorf("explain missing the weekly plan's tier line:\n%s", out)
	}

	p = compilePlan(t, `select sum(value) from meters`)
	out = ExplainString(p, eng)
	if !strings.Contains(out, "tier: raw scan (no bucket dimension (tier serving of unbucketed plans waits") {
		t.Errorf("explain missing raw-scan tier reason:\n%s", out)
	}
}
