// Benchmarks regenerating the performance-relevant piece of every
// cmd/vapbench experiment (the paper is a demo paper with no numeric
// tables; vapbench's E1..E10 are the reproducible claims). Run with:
//
//	go test -bench=. -benchmem
//
// The full result tables (accuracy, sensitivity sweeps) come from
// cmd/vapbench; these benches measure the computational kernels.
package vap_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vap"
	"vap/internal/cluster"
	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/stream"
	"vap/internal/vql"
)

// benchData lazily builds one shared dataset + store for all benchmarks.
var benchData struct {
	once sync.Once
	ds   *gen.Dataset
	st   *store.Store
	an   *core.Analyzer
	rows [][]float64
	dist [][]float64
}

func setupBench(b *testing.B) {
	b.Helper()
	benchData.once.Do(func() {
		ds := gen.Generate(gen.Config{
			Seed: 42,
			Days: 90,
			Counts: map[gen.Pattern]int{
				gen.PatternBimodal:      60,
				gen.PatternEnergySaving: 50,
				gen.PatternIdle:         30,
				gen.PatternConstantHigh: 40,
				gen.PatternSuspicious:   20,
				gen.PatternEarlyBird:    30,
			},
		})
		st, err := store.Open(store.Options{})
		if err != nil {
			panic(err)
		}
		if err := ds.LoadInto(st); err != nil {
			panic(err)
		}
		an := core.NewAnalyzer(st)
		_, _, rows, err := an.Engine().MeterMatrixCtx(context.Background(), query.Selection{}, query.GranDaily, query.AggMean)
		if err != nil {
			panic(err)
		}
		dist, err := reduce.DistanceMatrixCtx(context.Background(), rows, reduce.MetricPearson, 1)
		if err != nil {
			panic(err)
		}
		benchData.ds, benchData.st, benchData.an = ds, st, an
		benchData.rows, benchData.dist = rows, dist
	})
}

func benchNoon() int64 { return benchData.ds.Start.Unix() + 30*86400 + 12*3600 }

// BenchmarkPipelineEndToEnd is E1 (Figure 1): generate view C, brush,
// profile, and compute a shift map, per iteration. MDS keeps the loop
// tight enough to iterate; BenchmarkTSNE covers the heavy reducer.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	setupBench(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		// Drop memoized results so every iteration measures real compute,
		// not the exec-cache hit path (BenchmarkTypicalPatternsCached
		// covers that).
		benchData.an.Exec().Invalidate()
		view, err := benchData.an.TypicalPatterns(ctx, core.TypicalConfig{
			Seed: 1, Method: reduce.MethodMDS,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, rows, err := view.SelectBrush(core.Brush{MaxX: 1, MaxY: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := view.Profile(rows); err != nil {
			b.Fatal(err)
		}
		noon := benchNoon()
		if _, err := benchData.an.ShiftPatternsCtx(context.Background(), core.ShiftConfig{
			T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDE and BenchmarkFlowMap are E2 (Figure 2). The Serial/Parallel
// pair tracks the row-band fan-out speedup of the grid evaluation.
func BenchmarkKDE(b *testing.B) {
	setupBench(b)
	noon := benchNoon()
	pts, err := benchData.an.Engine().DemandSnapshotCtx(context.Background(), query.Selection{}, noon, noon+4*3600)
	if err != nil {
		b.Fatal(err)
	}
	wpts := make([]kde.WeightedPoint, len(pts))
	for i, p := range pts {
		wpts[i] = kde.WeightedPoint{Loc: p.Loc, Weight: p.Weight}
	}
	box := benchData.st.Catalog().Bounds().Buffer(0.002)
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kde.EstimateCtx(context.Background(), wpts, box, kde.Config{Cols: 96, Rows: 96, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := kde.EstimateCtx(context.Background(), wpts, box, kde.Config{Cols: 96, Rows: 96, Workers: runtime.NumCPU()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKDEExact(b *testing.B) {
	setupBench(b)
	noon := benchNoon()
	pts, _ := benchData.an.Engine().DemandSnapshotCtx(context.Background(), query.Selection{}, noon, noon+4*3600)
	wpts := make([]kde.WeightedPoint, len(pts))
	for i, p := range pts {
		wpts[i] = kde.WeightedPoint{Loc: p.Loc, Weight: p.Weight}
	}
	box := benchData.st.Catalog().Bounds().Buffer(0.002)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kde.EstimateCtx(context.Background(), wpts, box, kde.Config{Cols: 96, Rows: 96, Exact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowMap(b *testing.B) {
	setupBench(b)
	noon := benchNoon()
	for i := 0; i < b.N; i++ {
		benchData.an.Exec().Invalidate() // measure compute, not cache hits
		if _, err := benchData.an.ShiftPatternsCtx(context.Background(), core.ShiftConfig{
			T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSNE / BenchmarkMDS / BenchmarkSMACOF / BenchmarkPCA are E3/E4
// (Figure 3, S1 step 3).
func BenchmarkTSNE(b *testing.B) {
	setupBench(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.TSNE(ctx, benchData.dist, reduce.TSNEConfig{Seed: 1, Iterations: 250}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDS(b *testing.B) {
	setupBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := reduce.ClassicalMDS(benchData.dist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMACOF(b *testing.B) {
	setupBench(b)
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.SMACOF(ctx, benchData.dist, reduce.SMACOFConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPCA(b *testing.B) {
	setupBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := reduce.PCA(context.Background(), benchData.rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceMatrixPearson pairs the serial reference against the
// exec-layer parallel path so the speedup stays measurable in BENCH_*
// snapshots; on an N-core runner Parallel should approach N x Serial.
func BenchmarkDistanceMatrixPearson(b *testing.B) {
	setupBench(b)
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reduce.DistanceMatrixCtx(context.Background(), benchData.rows, reduce.MetricPearson, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Parallel", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := reduce.DistanceMatrixCtx(ctx, benchData.rows, reduce.MetricPearson, runtime.NumCPU()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTypicalPatternsCached measures the interactive steady state:
// the same view requested repeatedly on an unchanged store, i.e. what a
// brushing session pays per round-trip once the exec cache is warm.
func BenchmarkTypicalPatternsCached(b *testing.B) {
	setupBench(b)
	ctx := context.Background()
	cfg := core.TypicalConfig{Seed: 1, Method: reduce.MethodMDS}
	if _, err := benchData.an.TypicalPatterns(ctx, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchData.an.TypicalPatterns(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShiftPatternsCached is the flow-map analogue.
func BenchmarkShiftPatternsCached(b *testing.B) {
	setupBench(b)
	ctx := context.Background()
	noon := benchNoon()
	cfg := core.ShiftConfig{T1: noon, T2: noon + 8*3600, Granularity: query.Gran4Hourly}
	if _, err := benchData.an.ShiftPatternsCtx(ctx, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchData.an.ShiftPatternsCtx(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVQLEndToEnd measures the full VQL path — parse, compile,
// plan-lower, fan-out execution over the pushdown iterators — for a
// representative bucketed GROUP BY with ordering, both cold (cache
// invalidated per iteration, the analytic cost) and cached (the
// interactive steady state: parse + plan hash + memo hit).
func BenchmarkVQLEndToEnd(b *testing.B) {
	setupBench(b)
	ctx := context.Background()
	const q = `SELECT bucket(daily) AS day, mean(value) AS avg_kwh, count(*)
		FROM meters WHERE zone = 'residential'
		GROUP BY bucket(daily) ORDER BY avg_kwh DESC LIMIT 14`
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchData.an.Exec().Invalidate()
			if _, err := benchData.an.VQL(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Cached", func(b *testing.B) {
		if _, err := benchData.an.VQL(ctx, q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := benchData.an.VQL(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// rollupBench holds two identically loaded dense multi-month stores — one
// opened with rollups disabled, one with the default hourly+daily tiers —
// so the Raw/Tier pair below measures exactly the tier-serving delta.
var rollupBench struct {
	once sync.Once
	raw  *query.Engine
	tier *query.Engine
	plan *vql.Plan
	err  error
}

func setupRollupBench(b *testing.B) {
	b.Helper()
	rollupBench.once.Do(func() {
		const (
			meters  = 48
			days    = 240 // dense multi-month history
			perDay  = 96  // 15-minute cadence, the common utility sampling rate
			cadence = 86400 / perDay
		)
		start := int64(19000 * 86400) // day-aligned so the daily tier covers the interior
		open := func(res []int64) (*query.Engine, error) {
			st, err := store.Open(store.Options{RollupRes: res})
			if err != nil {
				return nil, err
			}
			for id := int64(1); id <= meters; id++ {
				if err := st.PutMeter(store.Meter{
					ID:       id,
					Location: vap.Point{Lon: 12.5 + float64(id)*0.001, Lat: 55.7},
					Zone:     store.ZoneResidential,
				}); err != nil {
					return nil, err
				}
				batch := make([]store.Sample, days*perDay)
				for i := range batch {
					batch[i] = store.Sample{TS: start + int64(i)*cadence, Value: float64((int(id)+i)%37) * 0.25}
				}
				if _, err := st.AppendBatch(id, batch); err != nil {
					return nil, err
				}
			}
			return query.NewEngineWorkers(st, 0), nil
		}
		var err error
		if rollupBench.raw, err = open([]int64{}); err != nil {
			rollupBench.err = err
			return
		}
		if rollupBench.tier, err = open(nil); err != nil {
			rollupBench.err = err
			return
		}
		q, err := vql.Parse(`SELECT bucket(daily) AS day, sum(value), mean(value), count(*)
			FROM meters GROUP BY bucket(daily) ORDER BY day`)
		if err != nil {
			rollupBench.err = err
			return
		}
		rollupBench.plan, rollupBench.err = vql.Compile(q)
	})
	if rollupBench.err != nil {
		b.Fatal(rollupBench.err)
	}
}

// BenchmarkVQLRollup pairs a full raw decode against the rollup-tier path
// for the same daily GROUP BY over the same dense multi-month data, through
// the real executor (memoization bypassed). The exact-width serving rule
// makes the two results bit-identical — asserted before timing — so the
// ns/op ratio is the tier speedup, recorded as derived.rollup_speedup in
// BENCH_rollup.json (the ≥10x acceptance floor).
func BenchmarkVQLRollup(b *testing.B) {
	setupRollupBench(b)
	ctx := context.Background()
	runOn := func(eng *query.Engine) (*vql.Result, error) {
		ids, err := vql.ResolveScanMeters(eng, rollupBench.plan)
		if err != nil {
			return nil, err
		}
		from, to, ok := rollupBench.plan.ResolveWindow(eng.Store())
		return vql.ExecuteResolved(ctx, eng, rollupBench.plan, ids, from, to, ok)
	}
	rawRes, err := runOn(rollupBench.raw)
	if err != nil {
		b.Fatal(err)
	}
	tierRes, err := runOn(rollupBench.tier)
	if err != nil {
		b.Fatal(err)
	}
	if !reflect.DeepEqual(rawRes.Rows, tierRes.Rows) {
		b.Fatal("rollup-served rows differ from raw-scan rows")
	}
	if !strings.Contains(tierRes.Plan, "rollup serves") {
		b.Fatalf("tier store planned a raw scan:\n%s", tierRes.Plan)
	}
	bench := func(eng *query.Engine) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runOn(eng); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Raw", bench(rollupBench.raw))
	b.Run("Tier", bench(rollupBench.tier))
}

// BenchmarkKMeans is E5 (S1 step 4).
func BenchmarkKMeans(b *testing.B) {
	setupBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(benchData.rows, cluster.KMeansConfig{
			K: 5, Seed: 1, NormalizeZ: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShiftGranularity is E6 (S2 step 1): full seven-granularity sweep.
func BenchmarkShiftGranularity(b *testing.B) {
	setupBench(b)
	noon := benchNoon()
	for i := 0; i < b.N; i++ {
		benchData.an.Exec().Invalidate() // measure compute, not cache hits
		if _, _, err := benchData.an.GranularitySweep(context.Background(), core.ShiftConfig{
			T1: noon, T2: noon + 8*3600,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntensityBand is E7 (S2 step 2).
func BenchmarkIntensityBand(b *testing.B) {
	setupBench(b)
	for i := 0; i < b.N; i++ {
		if _, err := benchData.an.Engine().IntensityBandCtx(context.Background(), query.Selection{}, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamIngest is E8 (S2 step 3): one data-day replay through the
// incremental tracker per iteration.
func BenchmarkStreamIngest(b *testing.B) {
	setupBench(b)
	box := benchData.st.Catalog().Bounds().Buffer(0.002)
	feeds := make([]stream.Feed, len(benchData.ds.Customers))
	for i, c := range benchData.ds.Customers {
		feeds[i] = stream.Feed{MeterID: c.Meter.ID, Loc: c.Meter.Location, Samples: benchData.ds.Readings[i]}
	}
	from := benchData.ds.Start.Unix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker, err := stream.NewTracker(box, 64, 64, 0.004, len(feeds))
		if err != nil {
			b.Fatal(err)
		}
		rp := &stream.Replayer{Tracker: tracker, Step: 3600}
		if _, err := rp.Run(context.Background(), feeds, from, from+86400); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(feeds)*24), "readings/op")
}

// BenchmarkAPI* are E10 (§2.2 REST latency).
func benchmarkEndpoint(b *testing.B, path string) {
	setupBench(b)
	srv := httptest.NewServer(vap.NewHTTPServer(benchData.an, nil))
	defer srv.Close()
	client := srv.Client()
	// Warm the reduction cache so the bench measures steady state.
	warm, err := client.Get(srv.URL + path)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d for %s", resp.StatusCode, path)
		}
	}
}

func BenchmarkAPICustomers(b *testing.B) { benchmarkEndpoint(b, "/api/customers") }
func BenchmarkAPISeries(b *testing.B)    { benchmarkEndpoint(b, "/api/series?id=1&granularity=daily") }
func BenchmarkAPIReduce(b *testing.B)    { benchmarkEndpoint(b, "/api/reduce?method=mds") }
func BenchmarkAPIFlow(b *testing.B) {
	setupBench(b)
	noon := benchNoon()
	benchmarkEndpoint(b, fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600))
}

// Storage-engine benches (the PostGIS-replacement substrate).
func BenchmarkStoreAppend(b *testing.B) {
	st, err := store.Open(store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeter(store.Meter{ID: 1, Location: vap.Point{Lon: 12.5, Lat: 55.7}, Zone: store.ZoneResidential}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(1, store.Sample{TS: int64(i), Value: float64(i % 24)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableAppend measures durable ingest throughput through the
// WAL's group-commit pipeline: G goroutines append to disjoint meters in a
// directory-backed store. With sync on, every append is followed by a
// Store.Sync, which waits until its batch is written and fsynced — so
// goroutines=1 is the per-append-fsync baseline (one commit per append,
// nothing to batch with), while goroutines=16 shows concurrent Syncs
// sharing commits: durable throughput scales with concurrency instead of
// fsync count (the acceptance bar is >= 5x the baseline). The sync=false
// rows measure the buffered path where commits happen in the background
// every CommitInterval.
func BenchmarkDurableAppend(b *testing.B) {
	for _, syncEvery := range []bool{false, true} {
		for _, g := range []int{1, 16} {
			b.Run(fmt.Sprintf("sync=%t/goroutines=%d", syncEvery, g), func(b *testing.B) {
				st, err := store.Open(store.Options{Dir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				for id := int64(1); id <= int64(g); id++ {
					m := store.Meter{ID: id, Location: vap.Point{Lon: 12.5 + float64(id)*0.001, Lat: 55.7}, Zone: store.ZoneResidential}
					if err := st.PutMeter(m); err != nil {
						b.Fatal(err)
					}
				}
				per := b.N/g + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for id := int64(1); id <= int64(g); id++ {
					wg.Add(1)
					go func(id int64) {
						defer wg.Done()
						for i := 1; i <= per; i++ {
							err := st.Append(id, store.Sample{TS: int64(i), Value: float64(i % 24)})
							if err == nil && syncEvery {
								err = st.Sync()
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(id)
				}
				wg.Wait()
			})
		}
	}
}

func BenchmarkStoreRangeScan(b *testing.B) {
	setupBench(b)
	from := benchData.ds.Start.Unix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := benchData.st.Range(1, from, from+30*86400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpatialQuery(b *testing.B) {
	setupBench(b)
	box := benchData.st.Catalog().Bounds()
	c := box.Center()
	q := vap.BBox{
		Min: vap.Point{Lon: c.Lon - 0.01, Lat: c.Lat - 0.01},
		Max: vap.Point{Lon: c.Lon + 0.01, Lat: c.Lat + 0.01},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = benchData.st.Within(q)
	}
}

func BenchmarkMeterMatrix(b *testing.B) {
	setupBench(b)
	for i := 0; i < b.N; i++ {
		if _, _, _, err := benchData.an.Engine().MeterMatrixCtx(context.Background(), query.Selection{}, query.GranDaily, query.AggMean); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentAppendQuery is the sharded-store contention probe.
// Each iteration runs one fixed mixed workload: four writers append a
// deterministic burst across disjoint meter ranges while four readers
// issue the same number of short window scans. Every operation is
// microsecond-scale (the pushdown iterator decodes outside the lock, and
// the scan window is pinned to the preloaded region so its cost stays
// constant as appends accumulate), so the measurement is dominated by the
// store's locking. With one shard — the old global-RWMutex layout — the
// whole workload serializes behind a single mutex; the Shards16 variant
// should pull ahead on any multi-core runner.
func BenchmarkConcurrentAppendQuery(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("Shards%d", shards), func(b *testing.B) {
			st, err := store.Open(store.Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			const (
				meters  = 64
				preload = 60
				writers = 4
				readers = 4
				burst   = 1000 // ops per goroutine per iteration
			)
			for id := int64(1); id <= meters; id++ {
				if err := st.PutMeter(store.Meter{
					ID:       id,
					Location: vap.Point{Lon: 12.5 + float64(id)*0.001, Lat: 55.7},
					Zone:     store.ZoneResidential,
				}); err != nil {
					b.Fatal(err)
				}
				batch := make([]store.Sample, preload)
				for i := range batch {
					batch[i] = store.Sample{TS: int64(i) * 60, Value: float64(i % 24)}
				}
				if _, err := st.AppendBatch(id, batch); err != nil {
					b.Fatal(err)
				}
			}
			var next [meters]int64
			for i := range next {
				next[i] = preload * 60
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						const per = meters / writers
						for i := 0; i < burst; i++ {
							slot := w*per + i%per
							next[slot] += 60
							if err := st.Append(int64(slot)+1, store.Sample{TS: next[slot], Value: 1}); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						for i := 0; i < burst; i++ {
							id := int64((r*burst+i)%meters) + 1
							if _, err := st.Range(id, 0, preload*60); err != nil {
								b.Error(err)
								return
							}
						}
					}(r)
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64((writers+readers)*burst), "storeops/op")
		})
	}
}

// BenchmarkRecover measures cold-start recovery of a durable store whose
// data sits entirely in the snapshot (the WAL was retired by the snapshot
// cut), loaded serially and with the recovery worker pool. The last
// measurement of the retired v2 sample-at-a-time format (12.9 s against
// 0.21 s on the full fixture) is kept in BENCH_recover.json. The fixture
// defaults to 128 meters x 20k samples
// so the bench smoke stays fast; set VAP_RECOVER_FIXTURE=1000x100000 for
// the full acceptance fixture.
func BenchmarkRecover(b *testing.B) {
	meters, samplesPer := 128, 20_000
	if fx := os.Getenv("VAP_RECOVER_FIXTURE"); fx != "" {
		if _, err := fmt.Sscanf(fx, "%dx%d", &meters, &samplesPer); err != nil {
			b.Fatalf("bad VAP_RECOVER_FIXTURE %q: want MxN", fx)
		}
	}
	dir := b.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	smps := make([]store.Sample, samplesPer)
	for id := int64(1); id <= int64(meters); id++ {
		if err := st.PutMeter(store.Meter{ID: id, Location: vap.Point{Lon: 12.5 + float64(id)*0.0001, Lat: 55.7}, Zone: store.ZoneResidential}); err != nil {
			b.Fatal(err)
		}
		for i := range smps {
			smps[i] = store.Sample{TS: int64(i+1) * 60, Value: float64(i%96) * 0.25}
		}
		if _, err := st.AppendBatch(id, smps); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	total := meters * samplesPer
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"V3Serial", 1},
		{"V3Parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := store.Open(store.Options{Dir: dir, RecoverWorkers: tc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if got := st.Stats().Samples; got != total {
					b.Fatalf("recovered %d samples, want %d", got, total)
				}
				st.Close()
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkGovernMixed is the ISSUE 9 acceptance benchmark: cheap
// interactive-query latency measured alone (Unloaded) and with two
// monster analytics scans continuously hammering the same governed engine
// (Loaded). Admission priority plus the analytics batch-loop pacing must
// keep the loaded cheap-query p99 within 5x its unloaded value — without
// governance the cheap reads queue behind the monsters' full-store scans
// and the tail is unbounded. Each sub-benchmark reports its latency
// distribution (p50-ms / p99-ms via ReportMetric); their ratio
// govern_tail_ratio = Loaded p99 / Unloaded p99 is recorded in the
// BENCH_govern.json trajectory.
func BenchmarkGovernMixed(b *testing.B) {
	setupBench(b)
	gov := govern.New(govern.Config{
		MaxConcurrent:     8,
		InteractiveCutoff: 100_000, // one-meter/one-day reads stay interactive
		MaxQueueWait:      30 * time.Second,
	})
	an := core.NewAnalyzerOpts(benchData.st, core.Options{Gov: gov})
	ctx := context.Background()
	day0 := benchData.ds.Start.Unix()
	cheap := fmt.Sprintf("SELECT sum(value), count(*) FROM meters WHERE meter IN (1) AND time >= %d AND time < %d",
		day0, day0+86400)
	// Bucketless GROUP BYs never ride a rollup tier, so the monsters
	// always scan raw samples across every meter; distinct shapes defeat
	// singleflight coalescing, so two scans genuinely run concurrently.
	monsters := []string{
		"SELECT zone, sum(value), min(value), max(value) FROM meters GROUP BY zone",
		"SELECT meter, sum(value) FROM meters GROUP BY meter",
	}

	measure := func(b *testing.B) {
		lat := make([]time.Duration, 0, b.N)
		for i := 0; i < b.N; i++ {
			an.Exec().Invalidate() // measure a real scan, not the memo hit
			t0 := time.Now()
			if _, err := an.VQL(ctx, cheap); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		q := func(p float64) float64 {
			return float64(lat[int(p*float64(len(lat)-1))].Microseconds()) / 1000
		}
		b.ReportMetric(q(0.50), "p50-ms")
		b.ReportMetric(q(0.99), "p99-ms")
	}

	b.Run("Unloaded", measure)
	b.Run("Loaded", func(b *testing.B) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, q := range monsters {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// an.VQL admits internally (classified analytics from
					// the planner estimate); the cheap loop's per-iteration
					// Invalidate keeps these recomputing, not memo-hitting.
					if _, err := an.VQL(ctx, q); err != nil {
						var se *govern.ShedError
						if errors.As(err, &se) {
							time.Sleep(time.Millisecond)
							continue
						}
						b.Error(err)
						return
					}
				}
			}(q)
		}
		// Let the monsters reach their scan loops before timing.
		time.Sleep(10 * time.Millisecond)
		b.ResetTimer()
		measure(b)
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}
