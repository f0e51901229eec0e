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
	// to what Stats reports bumps ver — appendRaw, installChunks and a
	// re-put (Store.putMeterShardLocked) — so equal
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
func (s *Series) Append(smp Sample) error { return s.appendRun([]Sample{smp}) }

// appendRun appends an in-order run, stopping at the first sample out of
// order: each tier reserves its room once.
func (s *Series) appendRun(smps []Sample) error {
	if len(smps) > 0 {
		s.reserveRollups(len(smps), uint64(smps[len(smps)-1].TS)-uint64(smps[0].TS))
	}
	for _, smp := range smps {
		if err := s.appendRaw(smp); err != nil {
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
func (s *Series) appendRaw(smp Sample) error {
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
		s.seal()
	}
	return nil
}

// seal freezes the (non-empty) head encoder into an immutable chunk: its
// payload, with the count and the first and last timestamps the head
// already tracks, so nothing is decoded. That every sealed chunk decodes to
// exactly that metadata is a test's to hold (TestSealedChunksMatchTheirData).
// The encoder then reuses its bit buffer for the next block; nothing
// aliases it, since Bytes copies and Iter and captureChunks go through
// Bytes.
func (s *Series) seal() {
	s.sealed = append(s.sealed, &chunk{
		minTS:   s.headMinTS,
		maxTS:   s.head.LastTS(),
		count:   s.head.Len(),
		payload: s.head.Bytes(),
	})
	s.head.reset()
}

// captureChunks snapshots the series for a v4 (chunk-verbatim) snapshot:
// the sealed chunk list is aliased as-is (chunks are immutable) and the
// head block is copied. Caller holds the owning shard lock.
func (s *Series) captureChunks() (chunks []*chunk, headPayload []byte, headCount int) {
	if s.head.Len() > 0 {
		headPayload, headCount = s.head.Bytes(), s.head.Len()
	}
	return s.sealed, headPayload, headCount
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
		if err := s.appendRaw(smp); err != nil {
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
