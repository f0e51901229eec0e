package store

import (
	"errors"
	"math"
	"sort"
)

// Rollup tiers are per-meter pre-aggregated summaries of the raw series at
// fixed resolutions (DefaultRollupRes: one hour and one day). Each tier is
// an ascending array of buckets, one per resolution-aligned interval that
// received at least one sample, holding exactly the state the query
// layer's aggregates need (sum/count/min/max/first/last plus a NaN tally).
//
// Maintenance rides the ingest path: Series.Append folds the sample into
// the last bucket of every tier inside the same shard-lock critical
// section that appends it to the head block, so rollups cost a few float
// ops per sample and no additional locking. Because timestamps are
// strictly increasing, only the last bucket of a tier ever mutates — the
// interior of the bucket array is immutable, which is what lets TierScan
// hand out zero-copy views consistent with a point-in-time raw iterator.
//
// Rollup state is a pure function of the appended samples, so WAL replay
// and legacy (v1) snapshot loads rebuild tiers exactly by re-appending.
// Once retention (Options.RetainRaw) starts aging raw chunks out of
// snapshots the equivalence breaks — rollups outlive the raw data that
// built them — so v2 snapshots persist the tiers alongside the samples.

// DefaultRollupRes is the tier set used when Options.RollupRes is nil:
// hourly and daily buckets. Hourly serves hourly/4-hourly queries; daily
// serves daily and every coarser granularity (weekly and the UTC calendar
// units all start on midnight boundaries).
var DefaultRollupRes = []int64{3600, 86400}

// RollupBucket is one pre-aggregated interval [Start, Start+res) of one
// meter. Sum/Count/Min/Max fold only finite values (NaN readings are
// tallied in NaN so count(*) and count(value) both reconstruct; a single
// bad reading must not poison a bucket, matching the executors). First and
// Last are the raw first/last sample values of the bucket, NaN included.
type RollupBucket struct {
	Start    int64
	Count    int64 // finite samples folded
	NaN      int64 // NaN samples tallied, not folded
	Sum      float64
	Min, Max float64
	First    float64
	Last     float64
}

// rollupBucketBytes is the in-memory (and on-disk) footprint of one bucket.
const rollupBucketBytes = 64

func newRollupBucket(start int64, v float64) RollupBucket {
	b := RollupBucket{Start: start, Min: math.Inf(1), Max: math.Inf(-1), First: v, Last: v}
	b.fold(v)
	return b
}

func (b *RollupBucket) fold(v float64) {
	b.Last = v
	if v != v { // NaN
		b.NaN++
		return
	}
	b.Sum += v
	b.Count++
	if v < b.Min {
		b.Min = v
	}
	if v > b.Max {
		b.Max = v
	}
}

// rollupTier is one resolution's bucket array, ascending by Start.
type rollupTier struct {
	res     int64
	buckets []RollupBucket
}

// fold folds one in-order sample into the tier: extend the last bucket or
// open a new one — the interior is never touched.
func (t *rollupTier) fold(smp Sample) {
	start := smp.TS - mod64(smp.TS, t.res)
	if n := len(t.buckets); n > 0 && t.buckets[n-1].Start == start {
		t.buckets[n-1].fold(smp.Value)
	} else {
		t.buckets = append(t.buckets, newRollupBucket(start, smp.Value))
	}
}

// foldRollups folds one appended sample into every tier.
func (s *Series) foldRollups(smp Sample) {
	for i := range s.rollups {
		s.rollups[i].fold(smp)
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
// taking bucket arrays from file (a persisted capture) where the
// resolution matches and deriving the rest from the raw samples present.
// A derived tier is exact only while raw data covers the full history —
// after retention has aged chunks out, only persisted tiers cover the
// dropped span. Caller holds the shard lock.
func (s *Series) installRollups(res []int64, file []rollupTier) error {
	final := make([]rollupTier, len(res))
	var missing []*rollupTier
	for i, r := range res {
		final[i] = rollupTier{res: r}
		found := false
		for j := range file {
			if file[j].res == r {
				final[i].buckets = file[j].buckets
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

// snapTier is one tier's zero-copy capture for snapshotting: the immutable
// interior aliased, the live last bucket copied.
type snapTier struct {
	res      int64
	interior []RollupBucket
	tail     RollupBucket
	hasTail  bool
}

func (t *snapTier) len() int {
	n := len(t.interior)
	if t.hasTail {
		n++
	}
	return n
}

// captureTiers snapshots every tier under the caller-held shard lock.
func (s *Series) captureTiers() []snapTier {
	out := make([]snapTier, len(s.rollups))
	for i := range s.rollups {
		t := &s.rollups[i]
		out[i].res = t.res
		if n := len(t.buckets); n > 0 {
			out[i].interior = t.buckets[:n-1]
			out[i].tail = t.buckets[n-1]
			out[i].hasTail = true
		}
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
// version the whole capture was taken at. Interior aliases the tier's
// immutable bucket prefix (zero-copy); when the capture includes the
// series' live last bucket it is copied into Tail instead, since that one
// bucket keeps mutating under appends.
type TierScan struct {
	Left     *SeriesIter // raw samples in [from, alignedFrom); nil when empty
	Right    *SeriesIter // raw samples in [alignedTo, to); nil when empty
	Interior []RollupBucket
	Tail     RollupBucket
	HasTail  bool
	Version  uint64
}

// Buckets iterates the captured interior buckets (including the tail) in
// ascending Start order.
func (t *TierScan) Buckets(fn func(*RollupBucket)) {
	for i := range t.Interior {
		fn(&t.Interior[i])
	}
	if t.HasTail {
		fn(&t.Tail)
	}
}

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
	if aFrom > from {
		ts.Left = ser.Iter(from, aFrom)
	}
	if to > aTo {
		ts.Right = ser.Iter(aTo, to)
	}
	lo, hi := bucketRange(tier.buckets, aFrom, aTo)
	if hi > lo {
		if hi == len(tier.buckets) {
			// The series' last bucket keeps mutating in place; copy it out.
			ts.Interior = tier.buckets[lo : hi-1]
			ts.Tail = tier.buckets[hi-1]
			ts.HasTail = true
		} else {
			ts.Interior = tier.buckets[lo:hi]
		}
	}
	return ts, nil
}

// ErrNoRollupTier is returned by TierScan when the requested resolution is
// not maintained (rollups disabled, or a resolution the store was not
// opened with).
var ErrNoRollupTier = errors.New("store: no rollup tier at requested resolution")

// bucketRange binary-searches the half-open index range of buckets with
// from <= Start < to.
func bucketRange(buckets []RollupBucket, from, to int64) (lo, hi int) {
	lo = searchBuckets(buckets, from)
	hi = searchBuckets(buckets, to)
	return lo, hi
}

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
// and /api/stats.
type RollupTierStats struct {
	Res     int64 `json:"res_sec"`
	Buckets int   `json:"buckets"`
	Bytes   int64 `json:"bytes"`
}

// rollupStats sums per-tier bucket counts across every series.
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
					if t.res == r {
						out[i].Buckets += len(t.buckets)
					}
				}
			}
		}
		sh.mu.RUnlock()
	}
	for i := range out {
		out[i].Bytes = int64(out[i].Buckets) * rollupBucketBytes
	}
	return out
}
