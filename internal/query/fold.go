package query

import (
	"context"
	"math"
	"sort"

	"vap/internal/exec"
	"vap/internal/govern"
	"vap/internal/store"
)

// This file is the repository's one bucketed fold: the rule that decides
// when a rollup tier may stand in for raw samples, the per-meter kernel that
// folds a window into a bucket-indexed array of store.Fold states (the
// aggregate state a tier bucket holds too), and the one driver that fans a
// meter list out over it, and the one rule that turns a folded state into an
// aggregate's value. The engine's paper-pipeline calls (engine.go) and the
// VQL executor (internal/vql) both finalize through it.

const daySeconds int64 = 86400 // a day cell's width (see store.Fold)

// Value is the one finalization rule of both front doors: fn's value over
// the readings f folded. NaN readings never reach a fold's value (they are
// only tallied), so one bad reading does not poison its bucket; the sum of
// no reading is 0; a mean, min or max over no reading has no value, and
// neither has a non-finite result (an ±Inf reading, an overflowed sum). v is
// 0 whenever ok is false.
func (fn AggFunc) Value(f *store.Fold) (v float64, ok bool) {
	switch {
	case fn == AggSum:
		v = f.Sum
	case f.Count == 0:
		return 0, false
	case fn == AggMean:
		v = f.Sum / float64(f.Count)
	case fn == AggMin:
		v = f.Min
	case fn == AggMax:
		v = f.Max
	default:
		return 0, false
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// FixedWidth returns the width in seconds of the fixed epoch-aligned grid
// g's buckets are cut from: the bucket itself for the two sub-day units, the
// UTC day for everything coarser (weeks start on a Monday and calendar units
// on a 1st, both at 00:00 UTC). It is the cell of g's sum association (see
// store.Fold) and the one rollup resolution that may serve g.
func (g Granularity) FixedWidth() int64 {
	switch g {
	case GranHourly, Gran4Hourly:
		return g.ApproxSeconds()
	default:
		return daySeconds
	}
}

// WholeWindow is the bucket width of an unbucketed fold: one bucket
// spanning the scan window.
const WholeWindow int64 = math.MaxInt64

// ServingTier is the tier rule: it returns the rollup resolution that may
// serve buckets cut from a grid of the given width (Granularity.FixedWidth)
// over [from, to), with the aligned interior [aFrom, aTo) it covers, or res 0
// for a raw scan. Bucketed scans are served only by the tier whose
// resolution equals the width exactly: every tier bucket is then one cell of
// the sum association, so the rows are bit-identical to the raw fold's. An
// unbucketed fold (WholeWindow) takes the coarsest tier that fits; when a
// window holds no whole day and that is the hourly tier, its sum can differ
// from the raw fold's in the last ulp (see Engine.windowFolds). Either way
// the window must hold at least one whole tier bucket — the edges outside
// [aFrom, aTo) always decode raw, because a partial bucket's tier state
// covers samples outside the window.
func ServingTier(tiers []int64, width, from, to int64) (res, aFrom, aTo int64) {
	for i := len(tiers) - 1; i >= 0; i-- {
		r := tiers[i]
		if r != width && width != WholeWindow {
			continue
		}
		if aFrom, aTo = alignUp(from, r), alignDown(to, r); aTo > aFrom {
			return r, aFrom, aTo
		}
	}
	return 0, 0, 0
}

// alignUp rounds ts up to the next multiple of w (identity when aligned);
// alignDown rounds toward -inf. Both are negative-safe.
func alignUp(ts, w int64) int64 {
	if m := mod(ts, w); m != 0 {
		return ts + (w - m)
	}
	return ts
}

func alignDown(ts, w int64) int64 { return ts - mod(ts, w) }

// BucketBounds enumerates the ascending bucket starts of g covering
// [from, to), or nil when there are none or more than max. The walk uses
// Truncate/Next, so calendar granularities enumerate too.
func BucketBounds(g Granularity, from, to int64, max int) []int64 {
	if to <= from {
		return nil
	}
	// Cheap width-based bound before walking: catches "whole extent at
	// hourly" class windows without iterating. Unsigned subtraction is
	// overflow-safe for any from < to.
	if span := uint64(to) - uint64(from); span/uint64(g.ApproxSeconds()) > uint64(max) {
		return nil
	}
	bounds := make([]int64, 0, (to-from)/g.ApproxSeconds()+2)
	for t := g.Truncate(from); t < to; t = g.Next(t) {
		if len(bounds) >= max {
			return nil
		}
		bounds = append(bounds, t)
	}
	return bounds
}

// Scan is the immutable setup of one bucketed fold over [from, to), shared
// by every worker of a query: the bucket axis, the serving tier, and the
// per-batch governance check.
type Scan struct {
	st       *store.Store
	from, to int64
	bounds   []int64 // ascending bucket starts; the last bucket is open-ended
	dayCells bool    // buckets are a day or wider: fold through day cells
	minMax   bool
	tierRes  int64
	// pace surfaces deadline or cancellation between meters and between
	// decoded batches (a cancelled monster scan aborts mid-meter, not after
	// it) and yields the CPU for admitted analytics grants while
	// interactive work is in flight.
	pace func(context.Context) error
}

// NewScan prepares a fold of [from, to) into the buckets starting at
// bounds (ascending, non-empty, covering the window, not modified while
// the scan is in use; a single entry folds the whole window into one
// state), cut from a grid of the given width (Granularity.FixedWidth, or
// WholeWindow). tierRes, from ServingTier, routes the aligned
// interior through that rollup tier; 0 decodes everything raw. minMax
// selects the kernel that also tracks Min/Max.
func NewScan(ctx context.Context, st *store.Store, bounds []int64, width, from, to, tierRes int64, minMax bool) *Scan {
	return &Scan{st: st, from: from, to: to, bounds: bounds, dayCells: width >= daySeconds, minMax: minMax, tierRes: tierRes, pace: govern.PaceFunc(ctx)}
}

// NewDense returns the empty bucket-indexed scratch Meter folds into.
func (sc *Scan) NewDense() []store.Fold {
	dense := make([]store.Fold, len(sc.bounds))
	store.ResetFolds(dense)
	return dense
}

// Run is the one per-meter scan driver of both front doors: it folds every
// meter of ids through sc in chunks contiguous runs (the run length rounded
// up, so trailing runs can come out empty and are skipped) handed to
// exec.ForEach over workers, each run sharing one decode batch and one
// bucket scratch. emit receives meter i's touched folds, the index of the
// first, its in-window sample count and the per-meter version its data was
// captured at; the folds are re-seeded once emit returns, so an emit that
// keeps them copies them. One run emits in ids order; runs may emit
// concurrently, and a single run emits on the calling goroutine.
func (sc *Scan) Run(ctx context.Context, ids []int64, chunks, workers int, emit func(i int, folds []store.Fold, lo, n int, version uint64)) error {
	chunks = max(min(chunks, len(ids)), 1)
	size := (len(ids) + chunks - 1) / chunks
	return exec.ForEach(ctx, chunks, workers, func(c int) error {
		lo, hi := c*size, min((c+1)*size, len(ids))
		if lo >= hi {
			return nil
		}
		batch := store.GetBatch()
		defer store.PutBatch(batch)
		dense := sc.NewDense()
		for i := lo; i < hi; i++ {
			if err := sc.pace(ctx); err != nil {
				return err
			}
			n, blo, bhi, version, err := sc.Meter(ctx, ids[i], batch, dense)
			if err != nil {
				return err
			}
			emit(i, dense[blo:bhi], blo, n, version)
			store.ResetFolds(dense[blo:bhi])
		}
		return nil
	})
}

// foldCursor is one meter's position on the bucket axis. Timestamps only
// ascend — across the raw left edge, the tier interior and the raw right
// edge alike — so the bucket index only moves forward: finding a sample's
// bucket is one compare, and Truncate never runs.
type foldCursor struct {
	bi, lo  int
	touched bool
	n       int
	// cell is a day-cell scan's open cell, where raw samples fold, and
	// cellEnd its exclusive end: the earlier of the day's and the bucket's.
	cell    store.Fold
	cellEnd int64
}

// flush merges the open cell (a no-op when nothing reached it) into its
// bucket and closes it: the next raw sample opens a new one.
func (c *foldCursor) flush(dense []store.Fold) {
	dense[c.bi].Merge(&c.cell)
	c.cell, c.cellEnd = store.EmptyFold(), math.MinInt64
}

// seek advances to the bucket holding ts and returns its exclusive end. A
// meter's first bucket is found by binary search — its data may start far
// into a long axis — and every later one by walking forward. A sample
// before the axis (VQL's one-bucket axis nominally starts at 0) belongs to
// bucket 0.
func (c *foldCursor) seek(bounds []int64, ts int64) int64 {
	if !c.touched {
		c.bi = max(sort.Search(len(bounds), func(i int) bool { return bounds[i] > ts })-1, 0)
		c.lo, c.touched = c.bi, true
	}
	for c.bi+1 < len(bounds) && ts >= bounds[c.bi+1] {
		c.bi++
	}
	if c.bi+1 < len(bounds) {
		return bounds[c.bi+1]
	}
	return math.MaxInt64
}

// Meter folds one meter's window into dense (caller-owned, from NewDense,
// empty on entry) and returns the in-window sample count, the half-open
// range of bucket indices it touched — the caller reads dense[lo:hi] and
// re-seeds it with store.ResetFolds before the next meter, so sparse meters in a
// wide window never pay for the whole array — and the per-meter version
// the data was captured at. A tier-served scan takes one consistent capture
// (store.TierScan) and merges it in time order: left edge raw, interior
// tier buckets, right edge raw — on a day-cell scan each daily tier bucket
// is one whole cell, so that is the raw scan's merge order.
func (sc *Scan) Meter(ctx context.Context, id int64, batch *store.Batch, dense []store.Fold) (samples, lo, hi int, version uint64, err error) {
	c := foldCursor{cell: store.EmptyFold(), cellEnd: math.MinInt64}
	if sc.tierRes == 0 {
		it, err := sc.st.Iter(id, sc.from, sc.to)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		version = it.Version()
		if err := sc.foldRaw(ctx, it, batch, dense, &c); err != nil {
			return 0, 0, 0, 0, err
		}
	} else {
		tsc, err := sc.st.TierScan(id, sc.tierRes, sc.from, alignUp(sc.from, sc.tierRes), alignDown(sc.to, sc.tierRes), sc.to)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		version = tsc.Version
		if tsc.Left != nil {
			if err := sc.foldRaw(ctx, tsc.Left, batch, dense, &c); err != nil {
				return 0, 0, 0, 0, err
			}
			c.flush(dense)
		}
		tsc.Buckets(func(b *store.RollupBucket) {
			c.seek(sc.bounds, b.Start)
			dense[c.bi].Merge(&b.Fold)
			c.n += int(b.Count + b.NaN)
		})
		if tsc.Right != nil {
			if err := sc.foldRaw(ctx, tsc.Right, batch, dense, &c); err != nil {
				return 0, 0, 0, 0, err
			}
		}
	}
	if c.touched {
		c.flush(dense)
		hi = c.bi + 1
	}
	return c.n, c.lo, hi, version, nil
}

// foldRaw decodes one raw iterator batch by batch; each bucket's (or day
// cell's) run of samples is found by scanning the sorted timestamp column
// and folded in one tight loop over the value column.
func (sc *Scan) foldRaw(ctx context.Context, it *store.SeriesIter, batch *store.Batch, dense []store.Fold, c *foldCursor) error {
	for it.NextBatch(batch) {
		if err := sc.pace(ctx); err != nil {
			return err
		}
		ts, vals := batch.TS, batch.Val
		c.n += len(ts)
		k := 0
		for k < len(ts) {
			e, dst := c.cellEnd, &c.cell
			if !sc.dayCells {
				e = c.seek(sc.bounds, ts[k])
				dst = &dense[c.bi]
			} else if ts[k] >= e {
				// The day or the bucket ended: close the cell before seek moves.
				c.flush(dense)
				e = min(c.seek(sc.bounds, ts[k]), alignDown(ts[k], daySeconds)+daySeconds)
				c.cellEnd = e
			}
			r := k + 1
			for r < len(ts) && ts[r] < e {
				r++
			}
			if sc.minMax {
				dst.FoldVals(vals[k:r])
			} else {
				dst.FoldSum(vals[k:r])
			}
			k = r
		}
	}
	return it.Err()
}
