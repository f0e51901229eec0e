package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"vap/internal/geo"
	"vap/internal/stat"
	"vap/internal/store"
)

// Engine evaluates VAP's analytical queries against a Store. Per-meter
// work (series decode + aggregation) fans out across workers goroutines.
type Engine struct {
	st      *store.Store
	workers int
}

// NewEngineWorkers returns an engine bound to st with an explicit fan-out
// width (<= 0 selects runtime.GOMAXPROCS(0)).
func NewEngineWorkers(st *store.Store, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{st: st, workers: workers}
}

// Store returns the underlying store.
func (e *Engine) Store() *store.Store { return e.st }

// Workers returns the engine's fan-out width.
func (e *Engine) Workers() int { return e.workers }

// Selection describes which meters and which time window a query covers.
// Zero-value fields are unconstrained.
type Selection struct {
	BBox     *geo.BBox      // spatial filter
	Zone     store.ZoneType // zone filter ("" = any)
	MeterIDs []int64        // explicit meter set (nil = all)
	From, To int64          // half-open [From, To); both zero = all time
}

// ErrNoMeters is returned when a selection matches nothing.
var ErrNoMeters = errors.New("query: selection matches no meters")

// ErrWindowTooWide is wrapped by the error for a window that spans more
// than maxWindowBuckets buckets: the request's fault, not the server's.
var ErrWindowTooWide = errors.New("query: window too wide")

// ErrInput is wrapped by the other failures the request itself causes: a
// window that is inverted or holds no data, an unknown aggregate, a quantile
// outside [0, 1].
var ErrInput = errors.New("query: invalid input")

// ResolveMeters returns the sorted meter IDs matching sel, each once. An
// explicit meter set is a filter over the catalog like the other predicates:
// ids nobody registered drop out and a repeated id selects its meter once
// (into a fresh slice — sel.MeterIDs is the caller's), and a set naming none
// that is known matches nothing.
func (e *Engine) ResolveMeters(sel Selection) ([]int64, error) {
	cat := e.st.Catalog()
	var ids []int64
	switch {
	case sel.MeterIDs != nil:
		ids = slices.Clone(sel.MeterIDs)
		slices.Sort(ids)
		ids = cat.Filter(slices.Compact(ids), sel.Zone, sel.BBox)
	case sel.BBox != nil:
		ids = cat.Within(*sel.BBox)
		if sel.Zone != "" {
			ids = cat.Filter(ids, sel.Zone, nil)
		}
	case sel.Zone != "":
		ids = cat.ZoneIDs(sel.Zone)
	default:
		ids = cat.IDs()
	}
	if len(ids) == 0 {
		return nil, ErrNoMeters
	}
	return ids, nil
}

// ResolveWindow is the one window rule of both front doors: [from, to)
// where the request gave a side (hasFrom, hasTo), st's data extent on a side
// it left open — half-open, so an absent to is one past the last sample. A
// window that comes out inverted or empty, or an open side over an empty
// store, is the request's fault (ErrInput). Callers memoizing
// window-dependent results must key on the resolved window, not on what the
// request spelled: the extent moves when any meter receives a newer sample.
func ResolveWindow(st *store.Store, from, to int64, hasFrom, hasTo bool) (int64, int64, error) {
	if !hasFrom || !hasTo {
		first, last, ok := st.TimeBounds()
		if !ok {
			return 0, 0, fmt.Errorf("%w: the store holds no data", ErrInput)
		}
		if !hasFrom {
			from = first
		}
		if !hasTo {
			to = last + 1
		}
	}
	if to <= from {
		return 0, 0, fmt.Errorf("%w: time window [%d, %d) is empty", ErrInput, from, to)
	}
	return from, to, nil
}

// TimeWindow resolves the selection's effective window; a zero From or To is
// an absent side.
func (e *Engine) TimeWindow(sel Selection) (int64, int64, error) {
	return ResolveWindow(e.st, sel.From, sel.To, sel.From != 0, sel.To != 0)
}

// maxWindowBuckets bounds the bucket axis of one request on either front
// door. Windows come from request parameters, and the axis is allocated
// before any data is read; 2^20 hourly buckets is 119 years.
const maxWindowBuckets = 1 << 20

// BucketAxis enumerates g's bucket starts over [from, to) — nil for an empty
// window — and is the one place an axis of more than maxWindowBuckets
// becomes ErrWindowTooWide.
func BucketAxis(g Granularity, from, to int64) ([]int64, error) {
	bounds := BucketBounds(g, from, to, maxWindowBuckets)
	if bounds == nil && to > from {
		return nil, fmt.Errorf("%w: [%d, %d) spans more than %d %s buckets", ErrWindowTooWide, from, to, maxWindowBuckets, g)
	}
	return bounds, nil
}

// newScan prepares the shared kernel for a fold of [from, to) into the
// buckets starting at bounds, cut from a grid of the given width (see
// ServingTier), served from a rollup tier wherever the tier rule allows.
func (e *Engine) newScan(ctx context.Context, bounds []int64, width int64, fn AggFunc, from, to int64) *Scan {
	res, _, _ := ServingTier(e.st.RollupResolutions(), width, from, to)
	return NewScan(ctx, e.st, bounds, width, from, to, res, fn == AggMax || fn == AggMin)
}

// MeterSeries returns the aggregated series of a single meter: one Bucket
// per interval whose fold has a value (AggFunc.Value), whole grid cells
// served from the store's rollup tier of the granularity's FixedWidth when
// it keeps one.
func (e *Engine) MeterSeries(meterID int64, sel Selection, g Granularity, fn AggFunc) ([]Bucket, error) {
	return e.MeterSeriesCtx(context.Background(), meterID, sel, g, fn)
}

// MeterSeriesCtx is MeterSeries under ctx's deadline, cancellation and grant.
func (e *Engine) MeterSeriesCtx(ctx context.Context, meterID int64, sel Selection, g Granularity, fn AggFunc) ([]Bucket, error) {
	if err := fn.Valid(); err != nil {
		return nil, err
	}
	from, to, err := e.TimeWindow(sel)
	if err != nil {
		return nil, err
	}
	bounds, err := BucketAxis(g, from, to)
	if err != nil {
		return nil, err
	}
	sc := e.newScan(ctx, bounds, g.FixedWidth(), fn, from, to)
	var out []Bucket // stays nil when the window holds no reading
	err = sc.Run(ctx, []int64{meterID}, 4*e.workers, e.workers, func(_ int, folds []store.Fold, lo, _ int, _ uint64) {
		if len(folds) > 0 {
			out = make([]Bucket, 0, len(folds))
		}
		for j := range folds {
			f := &folds[j]
			if v, ok := fn.Value(f); ok && !f.Empty() {
				out = append(out, Bucket{Start: bounds[lo+j], Value: v, Count: int(f.Count + f.NaN)})
			}
		}
	})
	return out, err
}

// MeterMatrixCtx returns one aggregated row per selected meter, all aligned
// to the same bucket sequence (a bucket without a value filled with 0),
// together with the meter IDs (row order) and the bucket start times
// (column order): the "high-dimensional time series" input to dimension
// reduction. The per-meter scans fan out across the engine's workers; row
// order stays deterministic because each meter writes only its own row.
func (e *Engine) MeterMatrixCtx(ctx context.Context, sel Selection, g Granularity, fn AggFunc) (ids []int64, times []int64, rows [][]float64, err error) {
	if err := fn.Valid(); err != nil {
		return nil, nil, nil, err
	}
	ids, err = e.ResolveMeters(sel)
	if err != nil {
		return nil, nil, nil, err
	}
	from, to, err := e.TimeWindow(sel)
	if err != nil {
		return nil, nil, nil, err
	}
	if times, err = BucketAxis(g, from, to); err != nil {
		return nil, nil, nil, err
	}
	sc := e.newScan(ctx, times, g.FixedWidth(), fn, from, to)
	rows = make([][]float64, len(ids))
	err = sc.Run(ctx, ids, 4*e.workers, e.workers, func(r int, folds []store.Fold, lo, _ int, _ uint64) {
		row := make([]float64, len(times))
		for j := range folds {
			row[lo+j], _ = fn.Value(&folds[j])
		}
		rows[r] = row
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return ids, times, rows, nil
}

// DayProfilesCtx folds each meter of ids into its 24-hour mean day profile
// over [from, to), rows aligned with ids: entry h is the mean of the
// meter's hourly bucket means over the buckets starting h hours into a UTC
// day (floored, so pre-1970 hours too), 0 where no bucket has a mean.
// It is one hourly scan, not a series per meter.
func (e *Engine) DayProfilesCtx(ctx context.Context, ids []int64, from, to int64) ([][]float64, error) {
	from, to, err := ResolveWindow(e.st, from, to, true, true)
	if err != nil {
		return nil, err
	}
	bounds, err := BucketAxis(GranHourly, from, to)
	if err != nil {
		return nil, err
	}
	sc := e.newScan(ctx, bounds, GranHourly.FixedWidth(), AggMean, from, to)
	rows := make([][]float64, len(ids))
	err = sc.Run(ctx, ids, 4*e.workers, e.workers, func(i int, folds []store.Fold, lo, _ int, _ uint64) {
		var sums, counts [24]float64
		for j := range folds {
			if v, ok := AggMean.Value(&folds[j]); ok {
				h := mod(bounds[lo+j], daySeconds) / 3600
				sums[h] += v
				counts[h]++
			}
		}
		row := make([]float64, 24)
		for h := range row {
			if counts[h] > 0 {
				row[h] = sums[h] / counts[h]
			}
		}
		rows[i] = row
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// windowFolds folds each meter's whole [from, to) window into one state,
// aligned with ids. The aligned interior comes from the coarsest rollup tier
// that fits: the daily tier gives the raw fold's states bit for bit (both
// merge day cells, see store.Fold); a window holding no whole day — the flow map's
// 4-hour ones — falls to the hourly tier, whose subtotals can move a sum in
// the last ulp, and its callers feed normalized weights and quantile cuts.
func (e *Engine) windowFolds(ctx context.Context, ids []int64, from, to int64) ([]store.Fold, error) {
	sc := e.newScan(ctx, []int64{from}, WholeWindow, AggSum, from, to)
	out := make([]store.Fold, len(ids))
	err := sc.Run(ctx, ids, 4*e.workers, e.workers, func(i int, folds []store.Fold, _, _ int, _ uint64) {
		if len(folds) > 0 {
			out[i] = folds[0]
		}
	})
	return out, err
}

// TotalByMeterCtx returns each selected meter's total consumption over
// the window, keyed by meter ID; per-meter range scans run in parallel.
func (e *Engine) TotalByMeterCtx(ctx context.Context, sel Selection) (map[int64]float64, error) {
	ids, err := e.ResolveMeters(sel)
	if err != nil {
		return nil, err
	}
	from, to, err := e.TimeWindow(sel)
	if err != nil {
		return nil, err
	}
	folds, err := e.windowFolds(ctx, ids, from, to)
	if err != nil {
		return nil, err
	}
	out := make(map[int64]float64, len(ids))
	for i, id := range ids {
		out[id], _ = AggSum.Value(&folds[i])
	}
	return out, nil
}

// IntensityBandCtx selects the meters whose total consumption lies at or
// above the q-th quantile of the selection (the S2 "consumption intensity
// in a quartile value ranging from 30% to 90%" control). q is in [0, 1].
// The total-consumption scan is parallel and stops on ctx.
func (e *Engine) IntensityBandCtx(ctx context.Context, sel Selection, q float64) ([]int64, error) {
	if q < 0 || q > 1 {
		return nil, fmt.Errorf("%w: quantile %v out of [0,1]", ErrInput, q)
	}
	totals, err := e.TotalByMeterCtx(ctx, sel)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, 0, len(totals))
	for _, v := range totals {
		vals = append(vals, v)
	}
	cut := stat.Quantile(vals, q)
	var out []int64
	for id, v := range totals {
		if v >= cut {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) == 0 {
		return nil, ErrNoMeters
	}
	return out, nil
}

// DemandPoint is a consumption-weighted location: the input to the KDE
// density maps of Eq. 3.
type DemandPoint struct {
	MeterID int64     `json:"meter_id"`
	Loc     geo.Point `json:"loc"`
	Weight  float64   `json:"weight"` // normalized mean consumption c_i
}

// DemandSnapshotCtx returns, for the window [from, to), each selected
// meter's location weighted by its normalized average consumption in that
// window — exactly the (x_i, c_i) pairs of Eq. 3. The per-meter window
// scans fan out across the engine's workers.
func (e *Engine) DemandSnapshotCtx(ctx context.Context, sel Selection, from, to int64) ([]DemandPoint, error) {
	s := sel
	s.From, s.To = from, to
	ids, err := e.ResolveMeters(s)
	if err != nil {
		return nil, err
	}
	folds, err := e.windowFolds(ctx, ids, from, to)
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(ids))
	for i := range folds {
		means[i], _ = AggMean.Value(&folds[i])
	}
	weights := stat.Normalize01(means)
	cat := e.st.Catalog()
	out := make([]DemandPoint, 0, len(ids))
	for i, id := range ids {
		m, ok := cat.Get(id)
		if !ok {
			continue
		}
		out = append(out, DemandPoint{MeterID: id, Loc: m.Location, Weight: weights[i]})
	}
	return out, nil
}

// AggregateSelection sums the aggregated series of every selected meter into
// one combined series (View B's "aggregated consumption pattern for the
// customers selected in view C").
func (e *Engine) AggregateSelection(ctx context.Context, sel Selection, g Granularity, fn AggFunc) ([]Bucket, error) {
	_, times, rows, err := e.MeterMatrixCtx(ctx, sel, g, fn)
	if err != nil {
		return nil, err
	}
	out := make([]Bucket, len(times))
	for i, t := range times {
		out[i].Start = t
	}
	for _, row := range rows {
		for i, v := range row {
			out[i].Value += v
			out[i].Count++
		}
	}
	if fn == AggMean && len(rows) > 0 {
		for i := range out {
			out[i].Value /= float64(len(rows))
		}
	}
	return out, nil
}
