package vql

import (
	"fmt"
	"slices"

	"vap/internal/query"
	"vap/internal/store"
)

// minSamplesPerWorker is the fan-out floor: a goroutine (plus its batch
// scratch) is only worth spinning up when it has at least this many samples
// to decode.
const minSamplesPerWorker = 8192

// ScanCost is the planner's statistics-driven estimate for one resolved
// scan, and the physical choices derived from it. Estimates come from
// append-time chunk metadata (store.SeriesStats) — computing them never
// decodes data.
type ScanCost struct {
	Meters     int   // meters the selection resolved to
	EstSamples int64 // window-overlap estimate of samples to decode
	EstBlocks  int64 // compressed blocks touched
	EstBytes   int64 // compressed bytes touched

	// Refused is non-nil when the scan must not run: the window spans more
	// buckets than one request may enumerate (query.ErrWindowTooWide).
	// Callers return it before admission and before any decode.
	Refused error

	// Buckets is a bucketed plan's bucket count: its starts are enumerated
	// from the window and the granularity, so each worker folds into a
	// bucket-indexed array with precomputed boundaries. 0 for a plan
	// without a bucket key (one state per base key) and for a refused one.
	Buckets int
	Workers int // chosen fan-out width
	Chunks  int // contiguous meter chunks handed to workers

	// TierRes is the rollup tier resolution chosen to serve the scan; 0
	// means a raw-block scan, with TierReason naming why. When non-zero,
	// TierBuckets/TierEdges estimate the interior tier buckets read and the
	// raw samples decoded for the unaligned window edges.
	TierRes     int64
	TierBuckets int64
	TierEdges   int64
	TierReason  string

	// EstGroups estimates the group states the scan materializes across
	// partials and the sink — the driver of aggregation-state memory.
	EstGroups int64

	// overlap counts the meters whose extent intersects the window — the
	// tier cost model's bucket-count multiplier.
	overlap int
}

// Approximate per-unit sizes for the in-flight memory estimate: one
// aggregate state (store.Fold plus slice/alignment overhead), one group
// (its state in a meter's partial and again in the sink), and one decoded
// sample in batch scratch (timestamp + value).
const (
	aggStateBytes   = 48
	groupEntryBytes = 96
	sampleBytes     = 16
)

// EstMemBytes estimates the scan's peak in-flight bytes from the physical
// choices: per-worker decode scratch, the dense bucket arrays (one per
// chunk worker plus the merge sink), and the group states. It is the
// admission controller's memory-budget input — a deliberate overestimate
// (sparse meters touch fewer buckets than the bound assumes) so budget
// enforcement errs toward shedding, never toward OOM.
func (c *ScanCost) EstMemBytes() int64 {
	w := int64(c.Workers)
	if w < 1 {
		w = 1
	}
	mem := w*store.BatchSize*sampleBytes + (w+1)*int64(c.Buckets)*aggStateBytes
	return mem + c.EstGroups*groupEntryBytes
}

// EstimateScan exposes the planner's cost estimate for an already-resolved
// scan without executing anything — the admission controller's input.
// Estimates come from append-time chunk metadata, so calling this never
// decodes data.
func EstimateScan(eng *query.Engine, p *Plan, ids []int64, from, to int64) ScanCost {
	c, _ := planScan(p, eng.Store().SeriesStats(ids), from, to, eng.Workers(), eng.Store().RollupResolutions())
	return c
}

// planScan estimates the cost of scanning ids over [from, to) from
// per-series stats and picks the serving tier (if any), the bucket axis,
// and the parallelism degree. tiers lists the store's maintained
// rollup resolutions (ascending; nil disables tier serving). The returned
// bounds are a bucketed plan's ascending bucket starts.
func planScan(p *Plan, stats []store.SeriesStats, from, to int64, engineWorkers int, tiers []int64) (ScanCost, []int64) {
	c := ScanCost{Meters: len(stats)}
	for _, s := range stats {
		if s.Samples == 0 || s.MaxTS < from || s.MinTS >= to {
			continue
		}
		c.overlap++
		// Fraction of the series extent the window covers, assuming samples
		// spread evenly across [MinTS, MaxTS] — exact for the regular feeds
		// meters produce, a safe overestimate for bursty ones.
		olo, ohi := s.MinTS, s.MaxTS
		if from > olo {
			olo = from
		}
		if to-1 < ohi {
			ohi = to - 1
		}
		frac := 1.0
		if span := s.MaxTS - s.MinTS; span > 0 {
			frac = float64(ohi-olo+1) / float64(span+1)
		}
		es := int64(frac*float64(s.Samples) + 0.5)
		eb := int64(frac*float64(s.Blocks) + 0.5)
		ebytes := int64(frac*float64(s.CompressedBytes) + 0.5)
		if eb < 1 {
			eb = 1 // an overlapping series decodes at least one block
		}
		c.EstSamples += es
		c.EstBlocks += eb
		c.EstBytes += ebytes
	}

	// Group-state estimate: one state per overlapping meter without a
	// bucket dimension, per (meter, bucket) otherwise, capped at the sample
	// estimate — a group needs at least one sample to exist.
	var bounds []int64
	c.EstGroups = int64(c.overlap)
	if p.hasBucket {
		bounds, c.Refused = query.BucketAxis(p.Granularity(), from, to)
		c.Buckets = len(bounds)
		c.EstGroups *= int64(c.Buckets)
	}
	if c.EstGroups > c.EstSamples {
		c.EstGroups = c.EstSamples
	}
	planTier(p, &c, from, to, tiers)

	// Fan-out sizes to the work actually done: tier buckets merged plus
	// edge samples decoded when a tier serves, decoded samples otherwise.
	effort := c.EstSamples
	if c.TierRes != 0 {
		effort = c.TierBuckets + c.TierEdges
	}
	w := engineWorkers
	if w > c.Meters {
		w = c.Meters
	}
	// Don't fan out further than the data pays for: each extra worker must
	// have a full quantum of samples to chew on.
	if maxUseful := int(effort/minSamplesPerWorker) + 1; w > maxUseful {
		w = maxUseful
	}
	if w < 1 {
		w = 1
	}
	c.Workers = w
	// Chunks over-partition by 4x so ForEach's dynamic cursor can rebalance
	// skewed meters; single-worker scans run as one inline chunk.
	c.Chunks = w * 4
	if w == 1 {
		c.Chunks = 1
	}
	if c.Chunks > c.Meters {
		c.Chunks = c.Meters
	}
	if c.Chunks < 1 {
		c.Chunks = 1
	}
	return c, bounds
}

// planTier decides whether a rollup tier serves the scan: the shared tier
// rule (query.ServingTier — the tier of the granularity's grid width, at
// least one whole aligned tier bucket inside the window) says whether one
// may, and the cost estimate below whether it pays.
func planTier(p *Plan, c *ScanCost, from, to int64, tiers []int64) {
	if len(tiers) == 0 {
		c.TierReason = "no rollup tiers maintained"
		return
	}
	if !p.hasBucket {
		c.TierReason = "no bucket dimension (tier serving of unbucketed plans waits on the benchmark's raw-scan probe)"
		return
	}
	width := p.Granularity().FixedWidth()
	res, aFrom, aTo := query.ServingTier(tiers, width, from, to)
	if res == 0 {
		c.TierReason = "window narrower than one tier bucket"
		if !slices.Contains(tiers, width) {
			c.TierReason = fmt.Sprintf("no %ds tier maintained", width)
		}
		return
	}
	// Interior buckets: at most one per aligned interval per overlapping
	// meter; edge samples: the window-overlap estimate scaled by the edge
	// share of the window. Both upper bounds — sparse meters have fewer.
	estBuckets := int64(c.overlap) * ((aTo - aFrom) / width)
	if estBuckets > c.EstSamples {
		estBuckets = c.EstSamples
	}
	edgeFrac := float64((aFrom-from)+(to-aTo)) / float64(to-from)
	estEdges := int64(edgeFrac*float64(c.EstSamples) + 0.5)
	if tierCost := estBuckets + estEdges; tierCost*2 >= c.EstSamples {
		c.TierReason = fmt.Sprintf("tier would read ~%d units vs ~%d raw samples; not worth it", tierCost, c.EstSamples)
		return
	}
	c.TierRes = width
	c.TierBuckets = estBuckets
	c.TierEdges = estEdges
}
