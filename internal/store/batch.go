package store

import (
	"encoding/binary"
	"math"
	"sync"
)

// BatchSize is the capacity of a decode batch: large enough to hold one
// sealed chunk (chunkTargetSamples) in a single batch, small enough that
// a batch's two arrays (~16 KiB) stay cache-resident while the
// aggregation kernels sweep them.
const BatchSize = 1024

// Batch is a columnar run of decoded samples: parallel timestamp/value
// arrays the vectorized execution paths aggregate with tight loops
// instead of per-sample iterator calls. TS is ascending. A Batch is
// reusable across NextBatch calls; the backing arrays are allocated once.
type Batch struct {
	TS  []int64
	Val []float64

	tsBuf  []int64
	valBuf []float64
}

// NewBatch returns an empty batch with BatchSize capacity.
func NewBatch() *Batch {
	b := &Batch{
		tsBuf:  make([]int64, 0, BatchSize),
		valBuf: make([]float64, 0, BatchSize),
	}
	b.TS, b.Val = b.tsBuf, b.valBuf
	return b
}

var batchPool = sync.Pool{New: func() any { return NewBatch() }}

// GetBatch returns a reusable batch from the package pool; callers hand it
// back with PutBatch when the scan finishes. Query paths that decode one
// series per call (engine aggregations, VQL chunk workers) use the pool so
// fan-out does not churn two 8 KiB arrays per meter.
func GetBatch() *Batch { return batchPool.Get().(*Batch) }

// PutBatch returns a batch to the pool.
func PutBatch(b *Batch) {
	b.Reset()
	batchPool.Put(b)
}

// Len returns the number of samples currently in the batch.
func (b *Batch) Len() int { return len(b.TS) }

// appendTo appends the batch's samples to out, row-wise.
func (b *Batch) appendTo(out []Sample) []Sample {
	for i, ts := range b.TS {
		out = append(out, Sample{TS: ts, Value: b.Val[i]})
	}
	return out
}

// Reset empties the batch, keeping its capacity.
func (b *Batch) Reset() {
	b.TS, b.Val = b.tsBuf[:0], b.valBuf[:0]
}

// clamp restricts the batch to from <= TS < to, relying on TS being
// ascending. It returns true when a sample at or past `to` was seen, which
// ends the whole scan (blocks are time-ordered and disjoint).
func (b *Batch) clamp(from, to int64) (past bool) {
	ts := b.TS
	lo := 0
	for lo < len(ts) && ts[lo] < from {
		lo++
	}
	hi := len(ts)
	for hi > lo && ts[hi-1] >= to {
		hi--
		past = true
	}
	b.TS, b.Val = b.TS[lo:hi], b.Val[lo:hi]
	return past
}

// peek64 returns up to 64 bits starting at bit position pos, MSB-aligned.
// Only the top 64-(pos&7) >= 57 bits are meaningful (the low bits may be
// zero padding); callers needing more use read64. Positions at or past the
// end of data yield zeros — callers bounds-check against the bit length
// before committing a decode.
func peek64(data []byte, pos uint64) uint64 {
	i := pos >> 3
	if i+8 <= uint64(len(data)) {
		return binary.BigEndian.Uint64(data[i:]) << (pos & 7)
	}
	if i >= uint64(len(data)) {
		return 0
	}
	var buf [8]byte
	copy(buf[:], data[i:])
	return binary.BigEndian.Uint64(buf[:]) << (pos & 7)
}

// read64 returns exactly 64 bits starting at bit position pos (zero-padded
// past the end of data).
func read64(data []byte, pos uint64) uint64 {
	hi := peek64(data, pos) >> 32
	lo := peek64(data, pos+32) >> 32
	return hi<<32 | lo
}

// blockReader decodes one Gorilla payload batch-at-a-time: it dispatches
// on whole prefix-code words loaded 64 bits at a time and emits into
// columnar arrays. On corrupt input it yields a partial batch (the valid
// prefix) followed by ErrCorrupt. The bit-at-a-time reference decoder it is
// tested against lives in gorilla_ref_test.go.
type blockReader struct {
	data    []byte
	pos     uint64 // bit position
	end     uint64 // total bits in data
	n, i    int
	t, d    int64
	v       uint64
	leading uint8
	sigbits uint8
	err     error
}

// reset points the reader at a new payload, reusing the receiver.
func (d *blockReader) reset(payload []byte, n int) {
	*d = blockReader{data: payload, end: uint64(len(payload)) * 8, n: n, leading: 0xff}
}

// done reports whether the block is fully decoded or errored.
func (d *blockReader) done() bool { return d.err != nil || d.i >= d.n }

// decodeInto appends samples to b until the block or the batch capacity is
// exhausted, returning the number appended. On corrupt input it appends
// the valid prefix and sets err.
func (d *blockReader) decodeInto(b *Batch) int {
	off := len(b.TS)
	ts, vals := b.TS[:cap(b.TS)], b.Val[:cap(b.Val)]
	j := off
	data, pos, end := d.data, d.pos, d.end
	t, delta, v := d.t, d.d, d.v
	leading, sigbits := uint64(d.leading), uint64(d.sigbits)
	shift := 64 - leading - sigbits // re-align shift for window reuse
	i, n := d.i, d.n
	var derr error

	// The first sample is a raw 128-bit header; peel it so the main loop
	// handles only prefix-coded samples with no per-sample i==0/i==1
	// branches (delta starts at zero, so `delta += dod` already covers the
	// second sample's delta initialization).
	if i == 0 && n > 0 && j < len(ts) {
		if pos+128 > end {
			d.err = ErrCorrupt
			return 0
		}
		t = int64(read64(data, pos))
		v = read64(data, pos+64)
		pos += 128
		ts[j] = t
		vals[j] = math.Float64frombits(v)
		j++
		i++
	}

	// limit bounds the loop by both batch room and block length, replacing
	// two loop-condition checks with one; i is recovered from j afterwards.
	limit := j + (n - i)
	if limit > len(ts) {
		limit = len(ts)
	}
	j0 := j
	// Reslice both columns to exactly limit so the per-sample stores below
	// compile without bounds checks.
	tsl, vl := ts[:limit], vals[:limit]

	// w is a sliding window over the stream: its top `avail` bits are the
	// unconsumed bits starting at pos (low bits are zero). pos+avail stays
	// byte-aligned throughout, which is what lets the value fallbacks
	// extend the window with a single aligned load. One refill at the top
	// of each iteration covers the timestamp fast cases (at most 16 bits)
	// plus the value control bits and window header (13 bits).
	w := peek64(data, pos)
	avail := 64 - (pos & 7)

	for j < len(tsl) {
		if avail < 29 {
			w, avail = peek64(data, pos), 64-(pos&7)
		}
		// Timestamp: delta-of-delta prefix code, dispatched on the top
		// bits of the window.
		var dod int64
		switch {
		case w>>63 == 0: // "0"
			if pos+1 > end {
				derr = ErrCorrupt
			}
			w, avail, pos = w<<1, avail-1, pos+1
		case w>>62 == 0b10: // "10" + 7 bits
			if pos+9 > end {
				derr = ErrCorrupt
			}
			dod = int64((w<<2)>>57) - 63
			w, avail, pos = w<<9, avail-9, pos+9
		case w>>61 == 0b110: // "110" + 9 bits
			if pos+12 > end {
				derr = ErrCorrupt
			}
			dod = int64((w<<3)>>55) - 255
			w, avail, pos = w<<12, avail-12, pos+12
		case w>>60 == 0b1110: // "1110" + 12 bits
			if pos+16 > end {
				derr = ErrCorrupt
			}
			dod = int64((w<<4)>>52) - 2047
			w, avail, pos = w<<16, avail-16, pos+16
		default: // "1111" + raw 64
			if pos+68 > end {
				derr = ErrCorrupt
				break
			}
			dod = int64(read64(data, pos+4))
			pos += 68
			w, avail = peek64(data, pos), 64-(pos&7)
		}
		delta += dod
		t += delta

		// Value: XOR against the previous value inside the current
		// leading/significant-bits window. The top-of-loop refill
		// guarantees the control bits and window header are in the
		// word; the XOR payload extracts from the same word when it
		// fits and falls back to one more peek when the window is
		// wider than what's left.
		switch {
		case w>>63 == 0: // identical value
			if pos+1 > end {
				derr = ErrCorrupt
				break
			}
			w, avail, pos = w<<1, avail-1, pos+1
		case w>>62 == 0b10: // window reuse
			if leading == 0xff {
				derr = ErrCorrupt // reuse before any window was defined
				break
			}
			need := 2 + sigbits
			if pos+need > end {
				derr = ErrCorrupt
				break
			}
			var xbits uint64
			if need <= avail {
				xbits = (w << 2) >> (64 - sigbits)
				w, avail, pos = w<<need, avail-need, pos+need
			} else {
				// pos+avail is byte-aligned (the window is always loaded
				// at a byte boundary), so one aligned load supplies the
				// payload tail and becomes the next window.
				w2 := peek64(data, pos+avail)
				rest := need - avail
				xbits = (w<<2)>>(64-sigbits) | w2>>(64-rest)
				w, avail, pos = w2<<rest, 64-rest, pos+need
			}
			v ^= xbits << shift
		default: // "11": new window header, then the XOR bits
			l := (w << 2) >> 59
			s := (w<<7)>>58 + 1
			if l+s > 64 {
				// The encoder always satisfies lead+sig+trail == 64; a
				// wider window is malformed input, and the unsigned shift
				// below would underflow into silent value corruption.
				derr = ErrCorrupt
				break
			}
			need := 13 + s
			if pos+need > end {
				derr = ErrCorrupt
				break
			}
			var xbits uint64
			if need <= avail {
				xbits = (w << 13) >> (64 - s)
				w, avail, pos = w<<need, avail-need, pos+need
			} else {
				// Same aligned-tail composition as the reuse arm. rest is
				// at most 64 here (avail >= 13 after the timestamp code),
				// and shifts by 64 are well-defined zero in Go.
				w2 := peek64(data, pos+avail)
				rest := need - avail
				xbits = (w<<13)>>(64-s) | w2>>(64-rest)
				w, avail, pos = w2<<rest, 64-rest, pos+need
			}
			leading, sigbits, shift = l, s, 64-l-s
			v ^= xbits << shift
		}
		if derr != nil {
			break
		}
		tsl[j] = t
		vl[j] = math.Float64frombits(v)
		j++
	}
	i += j - j0

	b.TS, b.Val = ts[:j], vals[:j]
	d.pos, d.t, d.d, d.v = pos, t, delta, v
	d.leading, d.sigbits = uint8(leading), uint8(sigbits)
	d.i, d.err = i, derr
	return j - off
}

// NextBatch fills b with the next run of in-window samples, decoding one
// compressed block per call through the word-based batch decoder. It
// returns false when the window is exhausted or on a decode error (Err).
func (it *SeriesIter) NextBatch(b *Batch) bool {
	for {
		b.Reset()
		if it.done || it.err != nil {
			return false
		}
		if !it.inBlock {
			if len(it.segs) == 0 {
				it.done = true
				return false
			}
			seg := it.segs[0]
			it.segs = it.segs[1:]
			it.cur.reset(seg.payload, seg.count)
			it.inBlock = true
		}
		it.cur.decodeInto(b)
		if err := it.cur.err; err != nil {
			it.err = err
			// Surface the valid prefix (clamped) before reporting the
			// error.
			it.inBlock = false
			if b.clamp(it.from, it.to) {
				it.done = true
			}
			return b.Len() > 0
		}
		if it.cur.done() {
			it.inBlock = false
		}
		if b.clamp(it.from, it.to) {
			// A sample at or past `to`: later blocks are entirely outside.
			it.done = true
		}
		if b.Len() > 0 {
			return true
		}
		// Every decoded sample fell outside the window (an edge block
		// overlapping only by metadata); keep going — the loop head
		// terminates once done is set or the segments run dry.
	}
}

// SeriesStats is the per-series statistics surface the cost-based planner
// reads: everything is tracked on append (chunk metadata and counters), so
// a stats snapshot never decodes data.
type SeriesStats struct {
	MeterID         int64  `json:"meter_id"`
	Samples         int    `json:"samples"`
	Blocks          int    `json:"blocks"` // sealed chunks + head block
	MinTS           int64  `json:"min_ts"`
	MaxTS           int64  `json:"max_ts"`
	CompressedBytes int    `json:"compressed_bytes"`
	Version         uint64 `json:"version"`
}

// Stats returns the series' statistics. Callers must hold the owning
// shard's lock, like every other Series accessor.
func (s *Series) Stats() SeriesStats {
	st := SeriesStats{
		MeterID:         s.MeterID,
		Samples:         s.total,
		Blocks:          len(s.sealed),
		CompressedBytes: s.CompressedBytes(),
		Version:         s.ver,
	}
	if s.head.Len() > 0 {
		st.Blocks++
	}
	if s.total > 0 {
		st.MinTS, st.MaxTS, _ = s.Bounds()
	}
	return st
}
