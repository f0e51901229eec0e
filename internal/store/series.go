package store

import (
	"errors"
)

// chunkTargetSamples is the flush threshold of the in-progress chunk.
const chunkTargetSamples = 720 // one month of hourly readings

// chunk is an immutable compressed block of samples.
type chunk struct {
	minTS, maxTS int64
	count        int
	payload      []byte
}

// Series is an append-only compressed time series for one meter.
// It is not internally synchronized; Store serializes access.
type Series struct {
	MeterID int64
	sealed  []*chunk
	head    *Encoder
	// headMinTS caches the first timestamp of the head block so Bounds and
	// window pruning never decode the head just to read a timestamp. Valid
	// only while head.Len() > 0.
	headMinTS int64
	total     int
	// ver is the per-meter version: bumped on every mutation of this meter
	// (Append here; registration/replacement by the Store). Guarded by the
	// owner's shard lock, like every other field. Invariant: every change
	// to what Stats reports bumps ver — appendRaw, pruneRawBefore,
	// installChunks and a re-put (Store.putMeterShardLocked) — so equal
	// versions mean equal stats. A cached statement's key holds its meters'
	// versions, and core admits a hit with the cost estimated from the
	// stats those versions name (TestVersionStampsStats).
	ver uint64
	// rollups are the pre-aggregated tiers maintained on append; see
	// rollup.go. Empty when the owning store disables rollups.
	rollups []rollupTier
}

// NewSeries returns an empty series for the given meter, with no rollup
// tiers. A fresh series starts at version 1: its registration is itself a
// mutation.
func NewSeries(meterID int64) *Series {
	return &Series{MeterID: meterID, head: NewEncoder(), ver: 1}
}

// NewSeriesRollup returns an empty series maintaining rollup tiers at the
// given resolutions (seconds, ascending).
func NewSeriesRollup(meterID int64, res []int64) *Series {
	s := NewSeries(meterID)
	s.rollups = make([]rollupTier, len(res))
	for i, r := range res {
		s.rollups[i] = rollupTier{res: r}
	}
	return s
}

// Len returns the total number of stored samples.
func (s *Series) Len() int { return s.total }

// LastTS returns the most recent timestamp, or 0 when empty.
func (s *Series) LastTS() int64 {
	if s.head.Len() > 0 {
		return s.head.LastTS()
	}
	if n := len(s.sealed); n > 0 {
		return s.sealed[n-1].maxTS
	}
	return 0
}

// Append adds one sample. Timestamps must be strictly increasing across the
// series lifetime.
func (s *Series) Append(smp Sample) error { return s.appendRun([]Sample{smp}, nil) }

// appendRun appends an in-order run, stopping at the first sample out of
// order: each tier reserves its room once, and every chunk the run fills
// seals through b (a pooled batch when b is nil).
func (s *Series) appendRun(smps []Sample, b *Batch) error {
	s.reserveRollups(smps)
	for _, smp := range smps {
		if err := s.appendRaw(smp, b); err != nil {
			return err
		}
		for i := range s.rollups {
			s.rollups[i].fold(smp)
		}
	}
	return nil
}

// appendRaw is Append without the rollup fold: the snapshot load path
// (installChunks), whose tiers are installed separately (folding here too
// would double-count).
func (s *Series) appendRaw(smp Sample, b *Batch) error {
	if s.total > 0 && smp.TS <= s.LastTS() {
		return ErrOutOfOrder
	}
	if s.head.Len() == 0 {
		s.headMinTS = smp.TS
	}
	if err := s.head.Append(smp); err != nil {
		return err
	}
	s.total++
	s.ver++
	if s.head.Len() >= chunkTargetSamples {
		s.seal(b)
	}
	return nil
}

// seal freezes the head encoder into an immutable chunk. The payload is
// decoded once, to verify it, before the head lets go of it: through b, or
// a pooled batch when b is nil, keeping only the count and the first and
// last timestamps. The encoder then reuses its bit buffer for the next
// block; nothing aliases it, since Bytes copies and Iter and captureChunks
// go through Bytes.
func (s *Series) seal(b *Batch) {
	n := s.head.Len()
	if n == 0 {
		return
	}
	payload := s.head.Bytes()
	var d blockReader
	d.reset(payload, n)
	if b == nil {
		b = GetBatch()
		defer PutBatch(b)
	}
	c := &chunk{payload: payload}
	for !d.done() {
		b.Reset()
		d.decodeInto(b)
		if b.Len() == 0 {
			continue
		}
		if c.count == 0 {
			c.minTS = b.TS[0]
		}
		c.maxTS = b.TS[b.Len()-1]
		c.count += b.Len()
	}
	if d.err != nil || c.count == 0 {
		// A decode failure here indicates an encoder bug; keep data raw in
		// the head rather than lose it. This path is exercised in tests via
		// corruption injection only.
		return
	}
	s.sealed = append(s.sealed, c)
	s.head.reset()
}

// captureChunks snapshots the series for a v4 (chunk-verbatim) snapshot:
// the sealed chunk list is aliased as-is (chunks are immutable) and the
// head block is copied. Retention is chunk-granular on purpose: sealed
// chunks wholly older than cutoff are left out here and dropped from
// memory by pruneRawBefore under the same rule, so what a
// retention-trimmed snapshot persists is exactly what memory keeps.
// Caller holds the owning shard lock.
func (s *Series) captureChunks(cutoff int64) (chunks []*chunk, headPayload []byte, headCount int) {
	for _, c := range s.sealed {
		if c.maxTS < cutoff {
			continue
		}
		chunks = append(chunks, c)
	}
	if s.head.Len() > 0 {
		headPayload, headCount = s.head.Bytes(), s.head.Len()
	}
	return chunks, headPayload, headCount
}

// installChunks bulk-loads a parsed snapshot meter into an empty series:
// sealed chunks (v3 / v4) are installed wholesale — no decode, no
// re-encode — and the raw samples (their head, which an Encoder cannot
// resume from payload bytes, or a v1/v2 sample run) are re-appended through
// appendRaw.
// No rollup folding: installRollups sets the tiers afterwards. Version
// accounting matches the sample-at-a-time path exactly (+1 per sample on
// top of the registration version), so a chunk-installed series
// fingerprints identically to a replayed one.
func (s *Series) installChunks(chunks []*chunk, head []Sample) error {
	if s.total != 0 || len(s.sealed) != 0 {
		return errors.New("store: installChunks on a non-empty series")
	}
	last := int64(minInt64)
	for _, c := range chunks {
		if c.count <= 0 || c.minTS > c.maxTS {
			return ErrCorrupt
		}
		if len(s.sealed) > 0 && c.minTS <= last {
			return ErrCorrupt // chunks must be strictly ascending
		}
		s.sealed = append(s.sealed, c)
		s.total += c.count
		s.ver += uint64(c.count)
		last = c.maxTS
	}
	for _, smp := range head {
		// appendRaw validates ordering against the last sealed chunk too.
		if err := s.appendRaw(smp, nil); err != nil {
			return err
		}
	}
	return nil
}

// CompressedBytes returns the total compressed payload size in bytes.
func (s *Series) CompressedBytes() int {
	n := s.head.SizeBytes()
	for _, c := range s.sealed {
		n += len(c.payload)
	}
	return n
}

// Range returns all samples with from <= TS < to, in timestamp order,
// materialized from the pushdown iterator.
func (s *Series) Range(from, to int64) ([]Sample, error) {
	var out []Sample
	it := s.Iter(from, to)
	b := GetBatch()
	defer PutBatch(b)
	for it.NextBatch(b) {
		out = b.appendTo(out)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// All returns every sample in order.
func (s *Series) All() ([]Sample, error) {
	if s.total == 0 {
		return nil, nil
	}
	return s.Range(minInt64, maxInt64)
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// ErrEmptySeries is returned by operations requiring data.
var ErrEmptySeries = errors.New("store: empty series")

// pruneRawBefore drops sealed chunks wholly older than cutoff (the
// retention rule of captureChunks), bumping the version when anything was
// dropped so caches keyed on it invalidate — aging raw data out changes
// what raw scans observe. Rollup tiers are untouched: they are what
// survives. Returns the number of samples dropped.
func (s *Series) pruneRawBefore(cutoff int64) int {
	n, dropped := 0, 0
	for n < len(s.sealed) && s.sealed[n].maxTS < cutoff {
		dropped += s.sealed[n].count
		n++
	}
	if n == 0 {
		return 0
	}
	s.total -= dropped
	s.sealed = append([]*chunk(nil), s.sealed[n:]...)
	s.ver++
	return dropped
}

// Bounds returns the first and last timestamps. Both ends are O(1): chunk
// boundaries and the head min/max are tracked on append, never decoded.
func (s *Series) Bounds() (first, last int64, err error) {
	if s.total == 0 {
		return 0, 0, ErrEmptySeries
	}
	if len(s.sealed) > 0 {
		first = s.sealed[0].minTS
	} else {
		first = s.headMinTS
	}
	return first, s.LastTS(), nil
}
