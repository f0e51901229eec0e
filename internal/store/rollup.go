package store

import (
	"errors"
	"math"
	"sort"
)

// Rollup tiers are per-meter pre-aggregated summaries of the raw series at
// fixed resolutions (DefaultRollupRes: one hour and one day). Each tier is
// an ascending run of buckets, one per resolution-aligned interval that
// received at least one sample, holding exactly the state the query
// layer's aggregates need: a Fold (sum/count/min/max plus a NaN tally).
//
// Maintenance rides the ingest path: Series.Append folds the sample into
// the last bucket of every tier inside the same shard-lock critical
// section that appends it to the head block, so rollups cost a few float
// ops per sample and no additional locking. Because timestamps are
// strictly increasing, only the last bucket of a tier ever mutates — the
// interior is immutable, and it is held in pages whose backing arrays never
// grow (Gorilla's closed blocks), which is what lets TierScan hand out
// zero-copy views consistent with a point-in-time raw iterator.
//
// Rollup state is a pure function of the appended samples, so WAL replay
// and legacy (v1) snapshot loads rebuild tiers exactly from the raw data.
// Once retention (Options.RetainRaw) starts aging raw chunks out of
// snapshots the equivalence breaks — rollups outlive the raw data that
// built them — so v2, v3 and v4 snapshots persist the tiers alongside it.

// DefaultRollupRes is the tier set used when Options.RollupRes is nil:
// hourly and daily buckets. Hourly serves hourly/4-hourly queries; daily
// serves daily and every coarser granularity (weekly and the UTC calendar
// units all start on midnight boundaries).
var DefaultRollupRes = []int64{3600, 86400}

// Fold is one group's aggregate state. Every aggregate shares it, so a
// scan folding sum, mean, min, max and count together reads the data
// once. NaN samples are tallied, never folded; ±Inf folds like any value.
// Each caller decides at finalization what a NaN tally means.
//
// The order of a float sum is part of the result, and every path — raw
// kernel, rollup tier, the oracle in vql/exec_ref_test.go — honours one
// association. Per meter, a bucket at least one UTC day wide (daily and
// coarser, and the one bucket of an unbucketed fold) is the in-time-order
// Merge of its day cells, a day cell being the sample-order fold of the
// meter's samples in [day, day+86400) ∩ window ∩ bucket; hourly and 4-hourly
// buckets are sample-order folds. Meters then merge in the caller's order. A
// daily rollup bucket is one whole day cell, which is what lets the daily
// tier stand in for the raw samples of every such bucket bit for bit.
type Fold struct {
	Sum      float64
	Count    int64 // non-NaN samples folded
	NaN      int64 // NaN samples tallied
	Min, Max float64
}

// EmptyFold returns the state no sample has touched.
func EmptyFold() Fold { return Fold{Min: math.Inf(1), Max: math.Inf(-1)} }

// ResetFolds re-seeds fs to the empty state.
func ResetFolds(fs []Fold) {
	for i := range fs {
		fs[i] = EmptyFold()
	}
}

// Empty reports whether no sample (NaN or not) reached the state.
func (f *Fold) Empty() bool { return f.Count == 0 && f.NaN == 0 }

// FoldVals folds one run of values from a decoded batch, one sample at a
// time in stored order, so sums are bit-identical however a scan splits
// its runs.
func (f *Fold) FoldVals(vals []float64) {
	sum, mn, mx := f.Sum, f.Min, f.Max
	n, nan := f.Count, f.NaN
	for _, v := range vals {
		if v != v {
			nan++
			continue
		}
		sum += v
		n++
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	f.Sum, f.Count, f.NaN, f.Min, f.Max = sum, n, nan, mn, mx
}

// FoldSum is FoldVals without min/max, for scans whose aggregates are only
// sum/mean/count: one compare and one add per sample.
func (f *Fold) FoldSum(vals []float64) {
	sum, n, nan := f.Sum, f.Count, f.NaN
	for _, v := range vals {
		if v != v {
			nan++
			continue
		}
		sum += v
		n++
	}
	f.Sum, f.Count, f.NaN = sum, n, nan
}

// Merge folds another state into f.
func (f *Fold) Merge(b *Fold) {
	f.Sum += b.Sum
	f.Count += b.Count
	f.NaN += b.NaN
	if b.Min < f.Min {
		f.Min = b.Min
	}
	if b.Max > f.Max {
		f.Max = b.Max
	}
}

// RollupBucket is one pre-aggregated interval [Start, Start+res) of one
// meter: the Fold of its samples in append order, built by the same
// FoldVals a raw scan runs, so merging a whole bucket yields exactly the
// state a raw scan of its samples would have built.
type RollupBucket struct {
	Start int64
	Fold
}

// rollupBucketBytes is one bucket's size in memory and in a v4 snapshot.
const rollupBucketBytes = 48

// tierPageBuckets is the size of a tier page opened without a
// reservation: 256 buckets, 12 KiB.
const tierPageBuckets = 256

// rollupTier is one resolution's buckets, ascending by Start, kept as a
// list of pages. A page's backing array is allocated once and never grows:
// opening a bucket appends to the last page while it has room and starts a
// new page otherwise, so no append ever copies the buckets already held.
// No page is empty, and only the last bucket of the last page mutates.
type rollupTier struct {
	res   int64
	pages [][]RollupBucket
	// want is the room the next page must have (see reserveRollups); zero
	// means tierPageBuckets.
	want int
}

// fold folds one in-order sample into the tier: extend the last bucket or
// open a new one — the interior is never touched. A sample in the last
// bucket or the next one finds its bucket without a division; the
// difference is taken unsigned so a jump across the whole int64 range
// cannot alias into either.
func (t *rollupTier) fold(smp Sample) {
	if last := t.last(); last != nil {
		d, res := uint64(smp.TS)-uint64(last.Start), uint64(t.res)
		if d < res {
			last.FoldVals([]float64{smp.Value})
			return
		}
		if d < 2*res {
			t.open(last.Start + t.res).FoldVals([]float64{smp.Value})
			return
		}
	}
	t.open(smp.TS - mod64(smp.TS, t.res)).FoldVals([]float64{smp.Value})
}

// last returns the tier's live last bucket, or nil when the tier is empty.
func (t *rollupTier) last() *RollupBucket {
	n := len(t.pages)
	if n == 0 {
		return nil
	}
	p := t.pages[n-1]
	return &p[len(p)-1]
}

// open appends an empty bucket, starting a page when the last one is full,
// and returns its fold state.
func (t *rollupTier) open(start int64) *Fold {
	n := len(t.pages)
	if n == 0 || len(t.pages[n-1]) == cap(t.pages[n-1]) {
		t.pages = append(t.pages, make([]RollupBucket, 0, max(tierPageBuckets, t.want)))
		t.want = 0
		n++
	}
	t.pages[n-1] = append(t.pages[n-1], RollupBucket{Start: start, Fold: EmptyFold()})
	return &t.pages[n-1][len(t.pages[n-1])-1].Fold
}

// reserveRollups makes room, once per batch, for every bucket the in-order
// batch smps can open in each tier: at most one per sample, and at most
// span/res + 2. When a tier's last page lacks that room, its next page is
// opened with all of it, so a year-long batch allocates each tier once.
func (s *Series) reserveRollups(smps []Sample) {
	if len(smps) == 0 {
		return
	}
	span := uint64(smps[len(smps)-1].TS) - uint64(smps[0].TS)
	for i := range s.rollups {
		t := &s.rollups[i]
		k := len(smps)
		if b := span / uint64(t.res); b < uint64(k) {
			k = min(k, int(b)+2)
		}
		if n := len(t.pages); n == 0 || cap(t.pages[n-1])-len(t.pages[n-1]) < k {
			t.want = k
		}
	}
}

func mod64(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// normalizeRollupRes resolves an Options.RollupRes value: nil selects the
// defaults, non-positive entries drop, the rest sort ascending and dedupe.
func normalizeRollupRes(res []int64) []int64 {
	if res == nil {
		res = DefaultRollupRes
	}
	out := make([]int64, 0, len(res))
	for _, r := range res {
		if r > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, r := range out {
		if i == 0 || r != out[i-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// installRollups sets the series' tiers to the configured resolutions,
// taking bucket pages from file (a persisted capture) where the
// resolution matches and deriving the rest from the raw samples present.
// A derived tier is exact only while raw data covers the full history —
// after retention has aged chunks out, only persisted tiers cover the
// dropped span. The series is not yet published (installSeries).
func (s *Series) installRollups(res []int64, file []rollupTier) error {
	final := make([]rollupTier, len(res))
	var missing []*rollupTier
	for i, r := range res {
		final[i] = rollupTier{res: r}
		found := false
		for j := range file {
			if file[j].res == r {
				final[i].pages = file[j].pages
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, &final[i])
		}
	}
	if len(missing) > 0 && s.total > 0 {
		it := s.Iter(minInt64, maxInt64)
		b := GetBatch()
		for it.NextBatch(b) {
			for i, ts := range b.TS {
				smp := Sample{TS: ts, Value: b.Val[i]}
				for _, t := range missing {
					t.fold(smp)
				}
			}
		}
		PutBatch(b)
		if err := it.Err(); err != nil {
			return err
		}
	}
	s.rollups = final
	return nil
}

// loadedTier wraps a tier read from a snapshot as one exactly sized page;
// buckets opened after recovery land on new pages.
func loadedTier(res int64, buckets []RollupBucket) rollupTier {
	t := rollupTier{res: res}
	if len(buckets) > 0 {
		t.pages = [][]RollupBucket{buckets}
	}
	return t
}

// tierView is a point-in-time capture of a run of one tier's buckets: the
// immutable interior as page sub-slices (zero-copy), and the tier's live
// last bucket, when the run includes it, copied into tail, since that one
// bucket keeps mutating under appends.
type tierView struct {
	interior [][]RollupBucket
	tail     RollupBucket
	hasTail  bool
	// two backs interior when the run spans at most two pages (a loaded
	// tier is one page), so a capture allocates nothing in the common case.
	two [2][]RollupBucket
}

func (v *tierView) len() int {
	n := 0
	for _, p := range v.interior {
		n += len(p)
	}
	if v.hasTail {
		n++
	}
	return n
}

// each calls fn on every captured bucket in ascending Start order.
func (v *tierView) each(fn func(*RollupBucket)) {
	for _, p := range v.interior {
		for i := range p {
			fn(&p[i])
		}
	}
	if v.hasTail {
		fn(&v.tail)
	}
}

// search returns the position (page, index) of the first bucket whose
// Start >= ts; (len(pages), 0) when there is none.
func (t *rollupTier) search(ts int64) (p, i int) {
	p = sort.Search(len(t.pages), func(k int) bool { pg := t.pages[k]; return pg[len(pg)-1].Start >= ts })
	if p < len(t.pages) {
		i = searchBuckets(t.pages[p], ts)
	}
	return p, i
}

// capture fills v with the buckets from position (p0, i0) up to, not
// including, (p1, i1).
func (t *rollupTier) capture(v *tierView, p0, i0, p1, i1 int) {
	if p0 > p1 || p0 == p1 && i0 >= i1 {
		return
	}
	if p1 == len(t.pages) {
		p1 = len(t.pages) - 1
		i1 = len(t.pages[p1]) - 1
		v.tail, v.hasTail = t.pages[p1][i1], true
	}
	v.interior = v.two[:0]
	if p1-p0 >= len(v.two) {
		v.interior = make([][]RollupBucket, 0, p1-p0+1)
	}
	for p := p0; p <= p1; p++ {
		lo, hi := 0, len(t.pages[p])
		if p == p0 {
			lo = i0
		}
		if p == p1 {
			hi = i1
		}
		if hi > lo {
			v.interior = append(v.interior, t.pages[p][lo:hi])
		}
	}
}

// snapTier is one tier's zero-copy capture for snapshotting.
type snapTier struct {
	res int64
	tierView
}

// captureTiers snapshots every tier under the caller-held shard lock.
func (s *Series) captureTiers() []snapTier {
	out := make([]snapTier, len(s.rollups))
	for i := range s.rollups {
		t := &s.rollups[i]
		out[i].res = t.res
		t.capture(&out[i].tierView, 0, 0, len(t.pages), 0)
	}
	return out
}

// rollupFor returns the tier with resolution res, or nil.
func (s *Series) rollupFor(res int64) *rollupTier {
	for i := range s.rollups {
		if s.rollups[i].res == res {
			return &s.rollups[i]
		}
	}
	return nil
}

// TierScan is a point-in-time capture of everything one meter contributes
// to a tier-served window [from, to): raw iterators over the unaligned
// edges, the tier buckets covering the aligned interior, and the per-meter
// version the whole capture was taken at.
type TierScan struct {
	Left    *SeriesIter // raw samples in [from, alignedFrom); nil when empty
	Right   *SeriesIter // raw samples in [alignedTo, to); nil when empty
	Version uint64
	buckets tierView
}

// Buckets iterates the captured interior buckets in ascending Start order.
func (t *TierScan) Buckets(fn func(*RollupBucket)) { t.buckets.each(fn) }

// TierScan captures one meter's tier-served scan of [from, to) under a
// single shard read lock: the raw edges [from, aFrom) and [aTo, to) and
// the tier buckets of resolution res with aFrom <= Start < aTo. Taking
// all three under one lock acquisition is what makes the capture a
// consistent point-in-time view — edges and interior can never observe
// different append frontiers, so Version stamps exactly the state every
// part of the capture reflects.
func (s *Store) TierScan(meterID, res, from, aFrom, aTo, to int64) (*TierScan, error) {
	sh := s.shardFor(meterID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[meterID]
	if !ok {
		return nil, ErrUnknownMeter
	}
	tier := ser.rollupFor(res)
	if tier == nil {
		return nil, ErrNoRollupTier
	}
	ts := &TierScan{Version: ser.ver}
	p0, i0 := tier.search(aFrom)
	p1, i1 := tier.search(aTo)
	tier.capture(&ts.buckets, p0, i0, p1, i1)
	if aFrom > from {
		ts.Left = ser.Iter(from, aFrom)
	}
	if to > aTo {
		ts.Right = ser.Iter(aTo, to)
	}
	return ts, nil
}

// ErrNoRollupTier is returned by TierScan when the requested resolution is
// not maintained (rollups disabled, or a resolution the store was not
// opened with).
var ErrNoRollupTier = errors.New("store: no rollup tier at requested resolution")

// searchBuckets returns the first index whose Start >= ts.
func searchBuckets(buckets []RollupBucket, ts int64) int {
	lo, hi := 0, len(buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if buckets[mid].Start < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RollupResolutions returns the tier resolutions this store maintains,
// ascending (nil when rollups are disabled). The returned slice is shared
// and must not be mutated.
func (s *Store) RollupResolutions() []int64 { return s.rollupRes }

// RollupTierStats is one tier's store-wide footprint, reported by Stats
// and /api/stats. Bytes is what the tier's pages hold, room not yet filled
// included.
type RollupTierStats struct {
	Res     int64 `json:"res_sec"`
	Buckets int   `json:"buckets"`
	Bytes   int64 `json:"bytes"`
}

// rollupStats sums per-tier bucket counts and page capacities across
// every series.
func (s *Store) rollupStats() []RollupTierStats {
	if len(s.rollupRes) == 0 {
		return nil
	}
	out := make([]RollupTierStats, len(s.rollupRes))
	for i, r := range s.rollupRes {
		out[i].Res = r
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, ser := range sh.series {
			for _, t := range ser.rollups {
				for i, r := range s.rollupRes {
					if t.res != r {
						continue
					}
					for _, p := range t.pages {
						out[i].Buckets += len(p)
						out[i].Bytes += int64(cap(p)) * rollupBucketBytes
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}
