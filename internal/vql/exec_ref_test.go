package vql

import (
	"context"
	"sort"
	"testing"

	"vap/internal/exec"
	"vap/internal/gen"
	"vap/internal/query"
	"vap/internal/store"
)

// refKey is the oracle's group key: every group, bucket included, through
// one map. (The shipping executor keys only the (meter, zone) slabs.)
type refKey struct {
	bucket, meter int64
	zone          store.ZoneType
}

func newFold() *store.Fold {
	f := store.EmptyFold()
	return &f
}

// ExecuteResolvedScalar is the oracle TestVectorizedMatchesScalar and
// BenchmarkVQLExec hold ExecuteResolved against: the sample-at-a-time
// executor that ran before vectorization, under the sum association
// store.Fold documents — per meter, a bucket at least a UTC day wide (and
// the one bucket of an unbucketed plan) is the in-order merge of its day
// cells, an hourly or 4-hourly bucket the sample-order fold; meters merge
// in ids order. Results are identical to ExecuteResolved (float bits
// included) except for the Plan rendering, which reflects the scalar
// pipeline.
func ExecuteResolvedScalar(ctx context.Context, eng *query.Engine, p *Plan, ids []int64, from, to int64, windowOK bool) (*Result, error) {
	res := &Result{Columns: make([]string, len(p.Cols)), Types: p.ColumnTypes(), Rows: [][]any{}}
	for i, c := range p.Cols {
		res.Columns[i] = c.Name
	}
	cat := eng.Store().Catalog()
	res.Plan = "VQL plan (scalar reference executor)\n"
	if len(ids) == 0 || !windowOK {
		res.Rows = buildRowsRef(p, nil)
		return res, nil
	}
	res.Window = [2]int64{from, to}
	res.Meters = len(ids)

	gran := p.Granularity()
	dayCells := !p.hasBucket || (gran != query.GranHourly && gran != query.Gran4Hourly)
	groupMeter := false
	for _, k := range p.Keys {
		if k.Kind == KeyMeter {
			groupMeter = true
		}
	}

	partials := make([]map[refKey]*store.Fold, len(ids))
	counts := make([]int, len(ids))
	vers := make([]uint64, len(ids))
	for i, st := range eng.Store().SeriesStats(ids) {
		vers[i] = st.Version
	}
	err := exec.ForEach(ctx, len(ids), eng.Workers(), func(i int) error {
		id := ids[i]
		var zone store.ZoneType
		if p.needZone {
			if m, ok := cat.Get(id); ok {
				zone = m.Zone
			}
		}
		smps, err := eng.Store().Range(id, from, to)
		if err != nil {
			return err
		}
		local := make(map[refKey]*store.Fold)
		key := refKey{zone: zone}
		if groupMeter {
			key.meter = id
		}
		group := func(bucket int64) *store.Fold {
			key.bucket = bucket
			g := local[key]
			if g == nil {
				g = newFold()
				local[key] = g
			}
			return g
		}
		// The open day cell, its bucket and its UTC day (store.Fold's sum
		// association); sub-day buckets fold straight into their group.
		var cell *store.Fold
		var cellBucket, cellDay int64
		for _, s := range smps {
			var b int64
			if p.hasBucket {
				b = gran.Truncate(s.TS)
			}
			if !dayCells {
				foldSample(group(b), s.Value)
				continue
			}
			if day := query.GranDaily.Truncate(s.TS); cell == nil || b != cellBucket || day != cellDay {
				if cell != nil {
					group(cellBucket).Merge(cell)
				}
				cell, cellBucket, cellDay = newFold(), b, day
			}
			foldSample(cell, s.Value)
		}
		if cell != nil {
			group(cellBucket).Merge(cell)
		}
		partials[i] = local
		counts[i] = len(smps)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Fingerprint = store.FingerprintPairs(ids, vers)

	groups := make(map[refKey]*store.Fold)
	for i, local := range partials {
		res.Samples += counts[i]
		for k, st := range local {
			if g, ok := groups[k]; ok {
				g.Merge(st)
			} else {
				groups[k] = st
			}
		}
	}

	res.Rows = buildRowsRef(p, groups)
	return res, nil
}

// buildRowsRef is the oracle's row assembly, the one ExecuteResolved used
// before it emitted rows from its slabs: every group through one map, the
// keys sorted into the default (bucket, meter, zone) order, one allocation
// per row, then ORDER BY and LIMIT.
func buildRowsRef(p *Plan, groups map[refKey]*store.Fold) [][]any {
	if len(p.Keys) == 0 && len(groups) == 0 {
		groups = map[refKey]*store.Fold{{}: newFold()}
	}
	keys := make([]refKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		if a.meter != b.meter {
			return a.meter < b.meter
		}
		return a.zone < b.zone
	})
	rows := make([][]any, len(keys))
	for r, k := range keys {
		st := groups[k]
		row := make([]any, len(p.Cols))
		for c, col := range p.Cols {
			if col.IsKey {
				switch p.Keys[col.Key].Kind {
				case KeyBucket:
					row[c] = k.bucket
				case KeyMeter:
					row[c] = k.meter
				default:
					row[c] = string(k.zone)
				}
			} else {
				row[c] = foldValue(st, col.Agg)
			}
		}
		rows[r] = row
	}
	if len(p.Order) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, o := range p.Order {
				c := cmpVal(rows[i][o.col], rows[j][o.col])
				if c != 0 {
					if o.desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	if p.Limit >= 0 && len(rows) > p.Limit {
		rows = rows[:p.Limit]
	}
	return rows
}

// foldSample folds one sample into f: the per-sample order Fold.FoldVals
// and the rollup tiers must reproduce bit for bit within a cell.
func foldSample(f *store.Fold, v float64) {
	if v != v { // NaN
		f.NaN++
		return
	}
	f.Sum += v
	f.Count++
	if v < f.Min {
		f.Min = v
	}
	if v > f.Max {
		f.Max = v
	}
}

// BenchmarkVQLExec pairs the scalar reference executor against the
// vectorized executor on the same compiled plan and resolved meter set
// (no memoization on either side) — the apples-to-apples measurement of
// the batch-execution speedup, robust to machine noise because both
// sides run under the same conditions. The pair's ratio is the
// vql_exec_speedup recorded in BENCH_vql.json.
func BenchmarkVQLExec(b *testing.B) {
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
		b.Fatal(err)
	}
	defer st.Close()
	if err := ds.LoadInto(st); err != nil {
		b.Fatal(err)
	}
	eng := query.NewEngineWorkers(st, 0)
	ctx := context.Background()
	p := compilePlan(b, `SELECT bucket(daily) AS day, mean(value) AS avg_kwh, count(*)
		FROM meters WHERE zone = 'residential'
		GROUP BY bucket(daily) ORDER BY avg_kwh DESC LIMIT 14`)
	ids, err := ResolveScanMeters(eng, p)
	if err != nil {
		b.Fatal(err)
	}
	from, to, ok := p.ResolveWindow(eng.Store())
	run := func(b *testing.B, execFn func(context.Context, *query.Engine, *Plan, []int64, int64, int64, bool) (*Result, error)) {
		b.ReportAllocs()
		samples := 0
		for i := 0; i < b.N; i++ {
			res, err := execFn(ctx, eng, p, ids, from, to, ok)
			if err != nil {
				b.Fatal(err)
			}
			samples = res.Samples
		}
		b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	}
	b.Run("Scalar", func(b *testing.B) { run(b, ExecuteResolvedScalar) })
	b.Run("Vectorized", func(b *testing.B) { run(b, ExecuteResolved) })
}
