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
// A page is one of two kinds. A general page holds 48-byte RollupBuckets.
// A dense page holds a run of consecutive buckets each folded from exactly
// one sample as that sample's value alone, 8 bytes a bucket: a meter that
// reports once per bucket (an hourly meter's hourly tier) keeps one
// float64 per hour, as Gorilla bets on regular timestamps (Pelkonen et
// al., VLDB 2015, §4.1.1). Readers rebuild a dense bucket through the
// general fold (singleFold), so both kinds yield the same bits.
//
// Rollup state is a pure function of the appended samples, and it is kept
// nowhere else: a snapshot holds the raw chunks only, and every open
// derives the tiers from them (installRollups) before WAL replay folds the
// log's samples on top, as the live appends did.

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

// rollupBucketBytes is one general bucket's size in memory, and the size of
// the tier bucket records VAP4 files written before tiers were derived hold.
const rollupBucketBytes = 48

// denseBucketBytes is one dense-page slot: the bucket's one value.
const denseBucketBytes = 8

// tierPageBuckets is the size of a tier page opened without a
// reservation: 256 buckets, 12 KiB general or 2 KiB dense.
const tierPageBuckets = 256

// denseMinRun is the shortest run of single-sample buckets that a gap lets
// open a new dense page behind it, and that a second sample in its last
// bucket leaves dense. Shorter runs stay on general pages, so no input
// pattern scatters a tier over pages that cost more than general buckets
// would.
const denseMinRun = 8

// tierPage is one page of a tier. A general page holds RollupBuckets in
// gen; a dense page (vals non-nil) holds consecutive buckets, bucket i
// starting at base + i·res and folded from vals[i] alone (singleFold).
type tierPage struct {
	base int64
	vals []float64
	gen  []RollupBucket
}

func (p *tierPage) len() int { return len(p.vals) + len(p.gen) }

// free is the number of buckets the page has room for.
func (p *tierPage) free() int { return cap(p.vals) - len(p.vals) + cap(p.gen) - len(p.gen) }

// start returns bucket i's Start.
func (p *tierPage) start(i int, res int64) int64 {
	if p.vals != nil {
		return p.base + int64(i)*res
	}
	return p.gen[i].Start
}

// bucket returns bucket i.
func (p *tierPage) bucket(i int, res int64) RollupBucket {
	if p.vals != nil {
		return RollupBucket{Start: p.base + int64(i)*res, Fold: singleFold(p.vals[i])}
	}
	return p.gen[i]
}

// slice returns buckets [lo, hi), lo < hi, as a page sharing p's array.
func (p *tierPage) slice(lo, hi int, res int64) tierPage {
	if p.vals != nil {
		return tierPage{base: p.base + int64(lo)*res, vals: p.vals[lo:hi]}
	}
	return tierPage{gen: p.gen[lo:hi]}
}

// search returns the first index whose Start >= ts: by binary search on a
// general page, by arithmetic on a dense one.
func (p *tierPage) search(ts, res int64) int {
	if p.vals == nil {
		return searchBuckets(p.gen, ts)
	}
	if ts <= p.base {
		return 0
	}
	d := uint64(ts) - uint64(p.base)
	i := d / uint64(res)
	if d%uint64(res) != 0 {
		i++
	}
	return int(min(i, uint64(len(p.vals))))
}

// singleFold is the bucket one sample of value v folds to: EmptyFold and
// then FoldVals of v, so -0 sums to +0 and a NaN is a tally over the empty
// bounds, exactly as on a general page.
func singleFold(v float64) Fold {
	f := EmptyFold()
	f.FoldVals([]float64{v})
	return f
}

// rollupTier is one resolution's buckets, ascending by Start, kept as a
// list of pages of either kind. A page's backing array is allocated once
// and never grows: opening a bucket appends to the last page while it has
// room and starts a new page otherwise, so no append ever copies the
// buckets already held. No page is empty, and only the last bucket of the
// last page mutates. Every general page but the last is full, and a dense
// page that stops being last keeps at most as many empty slots as buckets
// (trim), so a tier holds at most one page of room beyond 8 bytes a dense
// bucket.
type rollupTier struct {
	res   int64
	pages []tierPage
	// want is the room the next page must have (see reserveRollups); zero
	// means tierPageBuckets.
	want int
}

// fold folds one in-order sample into the tier: extend the last bucket or
// open a new one — the interior is never touched. A sample in the last
// bucket or the next one finds its bucket without a division; the
// difference is taken unsigned so a jump across the whole int64 range
// cannot alias into either. The next bucket of a dense page with room is
// one store.
func (t *rollupTier) fold(smp Sample) {
	if n := len(t.pages); n > 0 {
		p := &t.pages[n-1]
		last := p.start(p.len()-1, t.res)
		d, res := uint64(smp.TS)-uint64(last), uint64(t.res)
		if d < res {
			t.lastGeneral().FoldVals([]float64{smp.Value})
			return
		}
		if d < 2*res {
			if len(p.vals) < cap(p.vals) {
				p.vals = append(p.vals, smp.Value)
				return
			}
			t.open(last+t.res, true, smp.Value)
			return
		}
	}
	t.open(smp.TS-mod64(smp.TS, t.res), false, smp.Value)
}

// open appends a bucket at start folded from the one value v, next telling
// whether it follows the last bucket without a gap. A general last page
// with room takes it. Otherwise a new page opens, dense when the tier looks
// regular: it is empty, its last page is a dense one this bucket continues
// or whose run was at least denseMinRun long, or its last page is a full
// general page ending in a single-sample bucket or holding one bucket alone
// (one that lastGeneral moved out of a dense run).
func (t *rollupTier) open(start int64, next bool, v float64) {
	dense := true
	if n := len(t.pages); n > 0 {
		p := &t.pages[n-1]
		if p.vals == nil {
			if len(p.gen) < cap(p.gen) {
				p.gen = append(p.gen, RollupBucket{Start: start, Fold: singleFold(v)})
				return
			}
			b := &p.gen[len(p.gen)-1]
			dense = b.Count+b.NaN == 1 || len(p.gen) == 1
		} else {
			dense = next || len(p.vals) >= denseMinRun
			p.trim()
		}
	}
	if p := t.newPage(dense); dense {
		p.base, p.vals = start, append(p.vals, v)
	} else {
		p.gen = append(p.gen, RollupBucket{Start: start, Fold: singleFold(v)})
	}
}

// lastGeneral returns the fold of the live last bucket for a second
// sample. A dense slot holds one sample's bucket only, so a bucket in a
// dense page first moves out to a general page. When that was the page's
// one bucket, the page is dropped and its room passes to a new general
// page. Otherwise the dense page is trimmed; behind a run of at least
// denseMinRun the bucket gets a general page of its own, after which the
// run goes on dense (open), and behind a shorter run a general page with
// the next page's room.
func (t *rollupTier) lastGeneral() *Fold {
	n := len(t.pages)
	p := &t.pages[n-1]
	if p.vals == nil {
		return &p.gen[len(p.gen)-1].Fold
	}
	k := len(p.vals) - 1
	b := p.bucket(k, t.res)
	if k == 0 {
		t.want = max(t.want, cap(p.vals))
		t.pages[n-1] = tierPage{}
		t.pages = t.pages[:n-1]
	} else {
		p.vals = p.vals[:k]
		p.trim()
	}
	var g *tierPage
	if k >= denseMinRun {
		t.pages = append(t.pages, tierPage{gen: make([]RollupBucket, 0, 1)})
		g = &t.pages[n]
	} else {
		g = t.newPage(false)
	}
	g.gen = append(g.gen, b)
	return &g.gen[0].Fold
}

// newPage appends an empty page of the kind asked for the caller to fill,
// with the room the reservation asks, tierPageBuckets at least.
func (t *rollupTier) newPage(dense bool) *tierPage {
	k := max(tierPageBuckets, t.want)
	t.want = 0
	var p tierPage
	if dense {
		p.vals = make([]float64, 0, k)
	} else {
		p.gen = make([]RollupBucket, 0, k)
	}
	t.pages = append(t.pages, p)
	return &t.pages[len(t.pages)-1]
}

// trim gives back the room of a page that stops being the tier's last, by
// reallocating it to its length, when that room outweighs the buckets the
// copy moves; otherwise the page keeps its room unused. Either way a page
// behind the last holds at most as many empty slots as buckets. Captures
// may still hold the old array; nothing writes it again.
func (p *tierPage) trim() {
	if p.free() <= p.len() {
		return
	}
	if p.vals != nil {
		p.vals = append(make([]float64, 0, len(p.vals)), p.vals...)
	} else {
		p.gen = append(make([]RollupBucket, 0, len(p.gen)), p.gen...)
	}
}

// reserveRollups makes room, once per batch, for every bucket an in-order
// batch of n samples spanning span seconds can open in each tier: at most
// one per sample, and at most span/res + 2. When a tier's last page lacks
// that room, its next page is opened with all of it, so a year-long batch
// allocates each tier once.
func (s *Series) reserveRollups(n int, span uint64) {
	for i := range s.rollups {
		t := &s.rollups[i]
		k := n
		if b := span / uint64(t.res); b < uint64(k) {
			k = min(k, int(b)+2)
		}
		if n := len(t.pages); n == 0 || t.pages[n-1].free() < k {
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

// installRollups derives every tier of a freshly loaded series from its
// raw samples: each tier is reserved once for the whole history, as one
// batch of it would be, and every page is then trimmed and capped at its
// length, so a loaded tier is sized to its buckets and no later append
// moves or grows a page it holds (the next bucket opens a new one). The
// series is not yet published (installSeries).
func (s *Series) installRollups() error {
	if s.total == 0 {
		return nil
	}
	first, last, _ := s.Bounds()
	s.reserveRollups(s.total, uint64(last)-uint64(first))
	it := s.Iter(minInt64, maxInt64)
	b := GetBatch()
	defer PutBatch(b)
	for it.NextBatch(b) {
		for i, ts := range b.TS {
			for j := range s.rollups {
				s.rollups[j].fold(Sample{TS: ts, Value: b.Val[i]})
			}
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	for i := range s.rollups {
		for j := range s.rollups[i].pages {
			p := &s.rollups[i].pages[j]
			p.trim()
			p.vals, p.gen = p.vals[:len(p.vals):len(p.vals)], p.gen[:len(p.gen):len(p.gen)]
		}
	}
	return nil
}

// tierView is a point-in-time capture of a run of one tier's buckets: the
// immutable interior as page sub-slices (zero-copy), and the tier's live
// last bucket, when the run includes it, copied into tail, since that one
// bucket keeps mutating under appends.
type tierView struct {
	res      int64
	interior []tierPage
	tail     RollupBucket
	hasTail  bool
	// two backs interior when the run spans at most two pages (a loaded
	// tier of one kind is one page), so a capture allocates nothing in the
	// common case.
	two [2]tierPage
	// cur is the one bucket each hands every dense bucket through.
	cur RollupBucket
}

// each calls fn on every captured bucket in ascending Start order. A dense
// bucket is rebuilt into v.cur, which fn must not keep.
func (v *tierView) each(fn func(*RollupBucket)) {
	for i := range v.interior {
		p := &v.interior[i]
		if p.vals == nil {
			for j := range p.gen {
				fn(&p.gen[j])
			}
			continue
		}
		b := &v.cur
		for j := range p.vals {
			b.Start, b.Fold = p.base+int64(j)*v.res, EmptyFold()
			b.FoldVals(p.vals[j : j+1])
			fn(b)
		}
	}
	if v.hasTail {
		fn(&v.tail)
	}
}

// search returns the position (page, index) of the first bucket whose
// Start >= ts; (len(pages), 0) when there is none.
func (t *rollupTier) search(ts int64) (p, i int) {
	p = sort.Search(len(t.pages), func(k int) bool { pg := &t.pages[k]; return pg.start(pg.len()-1, t.res) >= ts })
	if p < len(t.pages) {
		i = t.pages[p].search(ts, t.res)
	}
	return p, i
}

// capture fills v with the buckets from position (p0, i0) up to, not
// including, (p1, i1).
func (t *rollupTier) capture(v *tierView, p0, i0, p1, i1 int) {
	v.res = t.res
	if p0 > p1 || p0 == p1 && i0 >= i1 {
		return
	}
	if p1 == len(t.pages) {
		p1 = len(t.pages) - 1
		i1 = t.pages[p1].len() - 1
		v.tail, v.hasTail = t.pages[p1].bucket(i1, t.res), true
	}
	v.interior = v.two[:0]
	if p1-p0 >= len(v.two) {
		v.interior = make([]tierPage, 0, p1-p0+1)
	}
	for p := p0; p <= p1; p++ {
		pg := &t.pages[p]
		lo, hi := 0, pg.len()
		if p == p0 {
			lo = i0
		}
		if p == p1 {
			hi = i1
		}
		if hi > lo {
			v.interior = append(v.interior, pg.slice(lo, hi, t.res))
		}
	}
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
// A dense page's buckets arrive through one bucket the scan reuses, so fn
// must not keep b after it returns, and one goroutine at a time walks a
// TierScan.
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
// and /api/stats. Buckets is Dense + General, the buckets on each page
// kind. Bytes is what the tier's pages hold, room not yet filled
// included: 8 bytes a dense slot, 48 a general one.
type RollupTierStats struct {
	Res     int64 `json:"res_sec"`
	Buckets int   `json:"buckets"`
	Dense   int   `json:"dense_buckets"`
	General int   `json:"general_buckets"`
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
						out[i].Dense += len(p.vals)
						out[i].General += len(p.gen)
						out[i].Bytes += int64(cap(p.vals))*denseBucketBytes + int64(cap(p.gen))*rollupBucketBytes
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	for i := range out {
		out[i].Buckets = out[i].Dense + out[i].General
	}
	return out
}
