// Package vql implements VQL, VAP's typed query language for meter
// analytics: a lexer, recursive-descent parser, typed logical plan, and a
// planner that compiles
//
//	SELECT <agg exprs | group keys> FROM meters
//	  [WHERE <bbox/zone/meter/time predicates>]
//	  [GROUP BY bucket(<granularity>) | meter | zone, ...]
//	  [ORDER BY ...] [LIMIT n]
//
// down to the data layer's existing primitives. WHERE predicates lower
// into query.Selection (so selection-scoped version fingerprints keep VQL
// results cacheable), aggregates run over the store's vectorized batch
// decoder through grouping kernels a statistics-driven cost model picks
// per query, and multi-meter plans fan out across workers with context
// cancellation.
package vql

import (
	"context"
	"errors"
	"slices"
	"sort"

	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/store"
)

func geoBox(pr BBoxPred) geo.BBox {
	return geo.NewBBox(
		geo.Point{Lon: pr.MinLon, Lat: pr.MinLat},
		geo.Point{Lon: pr.MaxLon, Lat: pr.MaxLat})
}

// Result is one executed query: column names aligned with row cells.
// Cell types are int64 (bucket starts, meter IDs, counts), float64
// (aggregates), or string (zones). Aggregates that fold to a non-finite
// value (stored NaN/±Inf, overflow) surface as null — every cell is
// JSON-encodable.
type Result struct {
	Columns []string  `json:"columns"`
	Types   []ColType `json:"types"` // cell types aligned with Columns
	Rows    [][]any   `json:"rows"`
	Window  [2]int64  `json:"window"`  // resolved half-open scan window
	Meters  int       `json:"meters"`  // meters scanned
	Samples int       `json:"samples"` // samples aggregated
	Plan    string    `json:"plan"`    // EXPLAIN rendering of the plan
	// Fingerprint is the selection-scoped data version of exactly the
	// state the rows were computed from: the commutative combination of
	// the per-meter versions each scan observed at iterator-snapshot time.
	// Two results with equal fingerprints are byte-identical even when
	// computed concurrently with streaming appends.
	Fingerprint uint64 `json:"fingerprint"`
}

// CacheBytes is the result's heap footprint from its lengths (exec.Sizer):
// each row's slice header and interface cells, and the 8-byte box of each
// float64 cell. Key cells are boxed once per bucket, meter or zone and
// shared by their rows, so they are not charged.
func (r *Result) CacheBytes() int64 {
	floats := 0
	for _, t := range r.Types {
		if t == TypeFloat64 {
			floats++
		}
	}
	return int64(len(r.Rows))*int64(24+16*len(r.Columns)+8*floats) + int64(len(r.Plan))
}

// ResolveWindow returns the plan's effective half-open scan window over
// st under the shared rule (query.ResolveWindow): explicit bounds where the
// query set them, the store's data extent filling the absent side(s). ok is
// false when the window cannot be resolved (an empty store, an extent
// entirely outside the bounds, inverted bounds) — the query then yields
// zero rows rather than the error the engine's endpoints answer with.
func (p *Plan) ResolveWindow(st *store.Store) (from, to int64, ok bool) {
	from, to, err := query.ResolveWindow(st, p.From, p.To, p.HasFrom, p.HasTo)
	return from, to, err == nil
}

// groupKey is the part of a group's key that is not its bucket. Unused
// dimensions stay at their zero values, so a query grouped by neither meter
// nor zone uses the zero key.
type groupKey struct {
	meter int64
	zone  store.ZoneType
}

// less is the default row order within one bucket: the key tuple ascending,
// so unordered queries are still deterministic.
func (k groupKey) less(o groupKey) bool {
	if k.meter != o.meter {
		return k.meter < o.meter
	}
	return k.zone < o.zone
}

// foldValue finalizes one aggregate for VQL: count(*) counts every row, NaN
// readings included, while count(value) counts only the samples the value
// aggregates folded; sum, mean, min and max follow query.AggFunc.Value, and
// an aggregate without a value is null (JSON-encodable, unlike NaN/±Inf).
func foldValue(a *store.Fold, fn AggFn) any {
	switch fn {
	case AggCount:
		return a.Count + a.NaN
	case AggCountValue:
		return a.Count
	}
	if v, ok := query.AggFunc(fn).Value(a); ok {
		return v
	}
	return nil
}

// needMinMax reports whether any output column folds min or max — the
// kernel selector.
func (p *Plan) needMinMax() bool {
	for _, c := range p.Cols {
		if !c.IsKey && (c.Agg == AggMin || c.Agg == AggMax) {
			return true
		}
	}
	return false
}

// ResolveScanMeters resolves the plan's meter set for execution through
// the engine's resolver (an explicit meter set is a filter: unknown ids drop
// out). The one difference is SQL's: a selection matching nothing returns
// an empty set, not query.ErrNoMeters.
func ResolveScanMeters(eng *query.Engine, p *Plan) ([]int64, error) {
	ids, err := eng.ResolveMeters(p.Sel)
	if errors.Is(err, query.ErrNoMeters) {
		return nil, nil
	}
	return ids, err
}

// ExecuteResolved runs a compiled plan over an already-resolved meter set
// and scan window (from ResolveScanMeters and Plan.ResolveWindow —
// callers that also fingerprint the selection and key caches on the
// window resolve once and share both, so the keyed window can never
// diverge from the executed one). windowOK false yields zero rows.
//
// Execution is vectorized: a cost model over per-series statistics picks
// the serving tier and the fan-out width, then contiguous meter chunks scan
// through the store's batch decoder into per-meter bucket-indexed partial
// aggregates (one bucket when the plan has no bucket key). Bucket
// boundaries are found by scanning the sorted timestamp array — the kernel
// never truncates or hashes per sample. A window of more buckets than one
// request may enumerate is refused (query.ErrWindowTooWide) before anything
// is decoded.
func ExecuteResolved(ctx context.Context, eng *query.Engine, p *Plan, ids []int64, from, to int64, windowOK bool) (*Result, error) {
	res := &Result{Columns: make([]string, len(p.Cols)), Types: p.ColumnTypes(), Rows: [][]any{}}
	for i, c := range p.Cols {
		res.Columns[i] = c.Name
	}
	if !windowOK {
		from, to = 0, 0
	}
	cost, bounds := planScan(p, eng.Store().SeriesStats(ids), from, to, eng.Workers(), eng.Store().RollupResolutions())
	if cost.Refused != nil {
		return nil, cost.Refused
	}
	res.Plan = explainText(p, &cost, true)
	if len(ids) == 0 || !windowOK {
		res.Rows = (&groupSink{}).rows(p)
		return res, nil
	}
	res.Window = [2]int64{from, to}
	res.Meters = len(ids)

	// Partials are per METER, not per chunk, and merge in the order ids
	// lists them: every meter's samples fold into their own states and the
	// states combine left-associatively, so the result is bit-identical to
	// the scalar executor — and independent of the planner's worker/chunk
	// split (float addition is not associative; collapsing a chunk's meters
	// into shared state would tie result bytes to the fan-out choice).
	width := p.Granularity().FixedWidth()
	if !p.hasBucket {
		// One bucket, whose start is the zero group key's bucket.
		bounds, width = []int64{0}, query.WholeWindow
	}
	sc := query.NewScan(ctx, eng.Store(), bounds, width, from, to, cost.TierRes, p.needMinMax())
	sink := &groupSink{bounds: bounds, index: make(map[groupKey]int)}
	groupMeter := slices.ContainsFunc(p.Keys, func(k KeyExpr) bool { return k.Kind == KeyMeter })
	cat := eng.Store().Catalog()
	vers := make([]uint64, len(ids))
	var partials []meterPartial // nil for a sequential scan: each meter merges as it finishes
	if cost.Chunks > 1 {
		partials = make([]meterPartial, len(ids))
	}
	err := sc.Run(ctx, ids, cost.Chunks, cost.Workers, func(i int, folds []store.Fold, lo, n int, version uint64) {
		mp := meterPartial{dense: folds, lo: lo, n: n}
		if groupMeter {
			mp.base.meter = ids[i]
		}
		if p.needZone {
			if m, ok := cat.Get(ids[i]); ok {
				mp.base.zone = m.Zone
			}
		}
		vers[i] = version
		if partials == nil {
			res.Samples += n
			sink.add(&mp, false)
			return
		}
		// The folds alias the run's scratch: keep a private copy.
		mp.dense = append([]store.Fold(nil), folds...)
		partials[i] = mp
	})
	if err != nil {
		return nil, err
	}
	for i := range partials {
		res.Samples += partials[i].n
		sink.add(&partials[i], true)
	}

	res.Fingerprint = store.FingerprintPairs(ids, vers)
	res.Rows = sink.rows(p)
	return res, nil
}

// meterPartial holds one meter's partial aggregates: the touched
// bucket-indexed folds (covering buckets [lo, lo+len(dense)) of the scan's
// bounds, base key base), so the hot path never hashes a group key. n is
// the meter's in-window sample count.
type meterPartial struct {
	dense []store.Fold
	lo    int
	base  groupKey
	n     int
}

// slab is the group states of one base key — a (meter, zone) pair —
// along the bucket axis: folds covers buckets [lo, lo+len(folds)) of the
// scan's bounds, and an entry no sample reached is Empty.
type slab struct {
	base  groupKey
	lo    int
	folds []store.Fold
}

// groupSink accumulates per-meter partials into the final group states, in
// the order the meters are handed over. It keeps one slab per
// base key: without a meter/zone key that is a single slab, GROUP BY meter
// gives each meter its own, GROUP BY zone merges a zone's meters into one.
// The base key is looked up once per meter, never per group, and the slabs
// still hold the groups in bucket order when the scan ends, so rows are
// emitted from them directly. The first partial to reach an entry is
// copied and later ones Merge into it — the association of the scalar
// executor's per-group map, so results stay bit-identical to it.
type groupSink struct {
	bounds []int64
	slabs  []slab
	index  map[groupKey]int // base key -> position in slabs
}

// add merges one meter's partial. owned says the partial's states are a
// private copy the sink may keep; otherwise they alias the chunk's scratch
// and are copied out.
func (s *groupSink) add(mp *meterPartial, owned bool) {
	if len(mp.dense) == 0 {
		return
	}
	i, ok := s.index[mp.base]
	if !ok {
		folds := mp.dense
		if !owned {
			folds = append([]store.Fold(nil), folds...)
		}
		s.index[mp.base] = len(s.slabs)
		s.slabs = append(s.slabs, slab{base: mp.base, lo: mp.lo, folds: folds})
		return
	}
	sl := &s.slabs[i]
	if mp.lo < sl.lo || mp.lo+len(mp.dense) > sl.lo+len(sl.folds) {
		// A second meter with another touched range: re-home the slab on
		// the whole axis once (the zero Fold is Empty) rather than grow it
		// meter by meter.
		folds := make([]store.Fold, len(s.bounds))
		copy(folds[sl.lo:], sl.folds)
		sl.lo, sl.folds = 0, folds
	}
	dst := sl.folds[mp.lo-sl.lo:]
	for j := range mp.dense {
		st := &mp.dense[j]
		if st.Empty() {
			continue
		}
		if g := &dst[j]; g.Empty() {
			*g = *st
		} else {
			g.Merge(st)
		}
	}
}

// rows materializes, orders, and limits the output rows. Without ORDER BY
// they come out in ascending (bucket, meter, zone) order — from the slabs
// by construction, with no sort over rows — and emission stops at LIMIT.
// An ungrouped aggregate always yields exactly one row (SQL semantics):
// over an empty selection count is 0 and the value-folding aggregates are
// null.
func (s *groupSink) rows(p *Plan) [][]any {
	n := 0
	for i := range s.slabs {
		for j := range s.slabs[i].folds {
			if !s.slabs[i].folds[j].Empty() {
				n++
			}
		}
	}
	var none *store.Fold
	if n == 0 && len(p.Keys) == 0 {
		empty := store.EmptyFold()
		none, n = &empty, 1
	}
	if len(p.Order) == 0 && p.Limit >= 0 && n > p.Limit {
		n = p.Limit
	}
	b := newRowBuilder(p, n)
	switch {
	case n == 0: // no group, or LIMIT 0
	case none != nil:
		b.add(nil, nil, nil, none)
	default:
		s.emitSlabs(b, n)
	}
	rows := b.rows
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
		if p.Limit >= 0 && len(rows) > p.Limit {
			// Copy the survivors out: the result may sit in the cache, and
			// a truncated slice would pin every sorted-away row's cells.
			top := newRowBuilder(p, p.Limit)
			for _, row := range rows[:p.Limit] {
				top.cells = append(top.cells, row...)
				top.seal()
			}
			rows = top.rows
		}
	}
	return rows
}

// emitSlabs emits the first n groups bucket-major over the slabs sorted by
// base key. Key cells are boxed once per bucket and once per slab.
func (s *groupSink) emitSlabs(b *rowBuilder, n int) {
	sort.Slice(s.slabs, func(i, j int) bool { return s.slabs[i].base.less(s.slabs[j].base) })
	type keyCells struct{ meter, zone any }
	keys := make([]keyCells, len(s.slabs))
	lo, hi := len(s.bounds), 0
	for i := range s.slabs {
		sl := &s.slabs[i]
		keys[i] = keyCells{sl.base.meter, string(sl.base.zone)}
		lo, hi = min(lo, sl.lo), max(hi, sl.lo+len(sl.folds))
	}
	for bi := lo; bi < hi && len(b.rows) < n; bi++ {
		var bucket any = s.bounds[bi]
		for i := range s.slabs {
			sl := &s.slabs[i]
			// One unsigned compare covers both ends of the slab's range.
			if j := uint(bi - sl.lo); j < uint(len(sl.folds)) && !sl.folds[j].Empty() {
				b.add(bucket, keys[i].meter, keys[i].zone, &sl.folds[j])
				if len(b.rows) == n {
					break
				}
			}
		}
	}
}

// rowBuilder lays result rows out in one cell allocation: each row is a
// full (three-index) sub-slice of cells, so appending to a row can never
// write into its neighbour.
type rowBuilder struct {
	p     *Plan
	cells []any
	rows  [][]any
}

func newRowBuilder(p *Plan, n int) *rowBuilder {
	return &rowBuilder{p: p, cells: make([]any, 0, n*len(p.Cols)), rows: make([][]any, 0, n)}
}

// add appends one group's row: the boxed key cells for the plan's key
// columns, the finalized aggregates for the rest.
func (b *rowBuilder) add(bucket, meter, zone any, st *store.Fold) {
	for _, col := range b.p.Cols {
		switch {
		case !col.IsKey:
			b.cells = append(b.cells, foldValue(st, col.Agg))
		case b.p.Keys[col.Key].Kind == KeyBucket:
			b.cells = append(b.cells, bucket)
		case b.p.Keys[col.Key].Kind == KeyMeter:
			b.cells = append(b.cells, meter)
		default:
			b.cells = append(b.cells, zone)
		}
	}
	b.seal()
}

// seal closes the cells appended since the last row into a row.
func (b *rowBuilder) seal() {
	at, end := len(b.rows)*len(b.p.Cols), len(b.cells)
	b.rows = append(b.rows, b.cells[at:end:end])
}

// cmpVal orders two homogeneous cell values (int64, float64, string, or
// nil for empty-group aggregates, which sort first).
func cmpVal(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch av := a.(type) {
	case int64:
		bv := b.(int64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case float64:
		bv := b.(float64)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case string:
		bv := b.(string)
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	default:
		return 0
	}
}
