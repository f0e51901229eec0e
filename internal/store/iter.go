package store

// iterSegment is one compressed block a SeriesIter decodes lazily: either
// an immutable sealed chunk's payload (shared, never copied) or a private
// copy of the head block taken at iterator construction.
type iterSegment struct {
	payload []byte
	count   int
}

// SeriesIter streams the samples of one series with from <= TS < to in
// timestamp order, decoding one Gorilla block at a time instead of
// materializing full sample slices. Blocks wholly outside the window are
// pruned by their cached min/max timestamps without decoding.
//
// A SeriesIter is a point-in-time snapshot: sealed chunks are immutable
// and the head block is copied at construction, so iteration is safe after
// the owning shard lock is released and is unaffected by concurrent
// appends. It is not safe for concurrent use by multiple goroutines.
type SeriesIter struct {
	segs     []iterSegment
	cur      blockReader // decode position
	inBlock  bool        // cur holds a partially decoded block
	from, to int64
	err      error
	done     bool
	ver      uint64 // per-meter version at snapshot time
}

// Iter returns an iterator over the window [from, to). Callers must hold
// the series' external synchronization (the store's shard lock) during the
// call itself; the returned iterator needs no further locking.
func (s *Series) Iter(from, to int64) *SeriesIter {
	it := &SeriesIter{from: from, to: to, ver: s.ver}
	if to <= from || s.total == 0 {
		it.done = true
		return it
	}
	for _, c := range s.sealed {
		if c.maxTS < from || c.minTS >= to {
			continue
		}
		it.segs = append(it.segs, iterSegment{payload: c.payload, count: c.count})
	}
	if s.head.Len() > 0 && s.headMinTS < to && s.head.LastTS() >= from {
		it.segs = append(it.segs, iterSegment{payload: s.head.Bytes(), count: s.head.Len()})
	}
	if len(it.segs) == 0 {
		it.done = true
	}
	return it
}

// Err returns the first decode error encountered, if any.
func (it *SeriesIter) Err() error { return it.err }

// Version returns the meter's per-meter version at the moment the
// iterator snapshotted the series. Combining the observed versions of
// every meter a query scanned (FingerprintPairs) yields the data
// fingerprint of exactly the state the results were computed from — the
// consistent stamp for concurrent readers, where re-reading the store's
// fingerprint after the scan could observe interleaved appends.
func (it *SeriesIter) Version() uint64 { return it.ver }
