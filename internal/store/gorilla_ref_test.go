package store

// The reference decoder: the sample-at-a-time, bit-at-a-time Gorilla
// decoder the store shipped before the word-based blockReader became the
// only one. The differential tests (TestNextBatchMatchesNext,
// FuzzGorillaRoundTrip, TestGorillaIterator) check the shipping encoder
// and decoder against it, and BenchmarkSeriesDecode/Scalar keeps timing it.

import (
	"errors"
	"math"
)

// ErrEndOfStream signals a reader has consumed all bits.
var ErrEndOfStream = errors.New("store: end of bit stream")

// bitReader reads bits MSB-first from a byte slice.
type bitReader struct {
	data []byte
	pos  int  // byte index
	bit  uint // bits already consumed in data[pos]
}

func newBitReader(data []byte) *bitReader { return &bitReader{data: data} }

func (r *bitReader) readBit() (bool, error) {
	if r.pos >= len(r.data) {
		return false, ErrEndOfStream
	}
	b := r.data[r.pos]&(1<<(7-r.bit)) != 0
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

func (r *bitReader) readBits(nbits uint) (uint64, error) {
	var v uint64
	for nbits > 0 {
		if r.pos >= len(r.data) {
			return 0, ErrEndOfStream
		}
		remain := 8 - r.bit
		take := nbits
		if take > remain {
			take = remain
		}
		shift := remain - take
		chunk := (r.data[r.pos] >> shift) & ((1 << take) - 1)
		v = v<<take | uint64(chunk)
		r.bit += take
		if r.bit == 8 {
			r.bit = 0
			r.pos++
		}
		nbits -= take
	}
	return v, nil
}

// Iterator streams samples out of a compressed payload without materializing
// the whole slice.
type Iterator struct {
	r       *bitReader
	n, i    int
	t       int64
	d       int64
	v       uint64
	leading uint8
	sigbits uint8
	cur     Sample
	err     error
}

// NewIterator returns an iterator over a payload with n samples.
func NewIterator(data []byte, n int) *Iterator {
	return &Iterator{r: newBitReader(data), n: n, leading: 0xff}
}

// Next advances to the next sample, returning false at the end or on error.
func (it *Iterator) Next() bool {
	if it.err != nil || it.i >= it.n {
		return false
	}
	switch it.i {
	case 0:
		ts, err := it.r.readBits(64)
		if err != nil {
			it.err = ErrCorrupt
			return false
		}
		vb, err := it.r.readBits(64)
		if err != nil {
			it.err = ErrCorrupt
			return false
		}
		it.t = int64(ts)
		it.v = vb
	default:
		d, err := it.readVarDelta()
		if err != nil {
			it.err = ErrCorrupt
			return false
		}
		if it.i == 1 {
			it.d = d
		} else {
			it.d += d
		}
		it.t += it.d
		if err := it.readValue(); err != nil {
			it.err = ErrCorrupt
			return false
		}
	}
	it.cur = Sample{TS: it.t, Value: math.Float64frombits(it.v)}
	it.i++
	return true
}

// Sample returns the current sample after a successful Next.
func (it *Iterator) Sample() Sample { return it.cur }

// Err returns the first decoding error encountered.
func (it *Iterator) Err() error { return it.err }

func (it *Iterator) readVarDelta() (int64, error) {
	b, err := it.r.readBit()
	if err != nil {
		return 0, err
	}
	if !b {
		return 0, nil
	}
	// Count additional prefix ones (max 3 more).
	ones := 1
	for ones < 4 {
		b, err = it.r.readBit()
		if err != nil {
			return 0, err
		}
		if !b {
			break
		}
		ones++
	}
	switch ones {
	case 1:
		v, err := it.r.readBits(7)
		if err != nil {
			return 0, err
		}
		return int64(v) - 63, nil
	case 2:
		v, err := it.r.readBits(9)
		if err != nil {
			return 0, err
		}
		return int64(v) - 255, nil
	case 3:
		v, err := it.r.readBits(12)
		if err != nil {
			return 0, err
		}
		return int64(v) - 2047, nil
	default:
		v, err := it.r.readBits(64)
		if err != nil {
			return 0, err
		}
		return int64(v), nil
	}
}

func (it *Iterator) readValue() error {
	b, err := it.r.readBit()
	if err != nil {
		return err
	}
	if !b {
		return nil // identical value
	}
	ctrl, err := it.r.readBit()
	if err != nil {
		return err
	}
	if ctrl {
		lead, err := it.r.readBits(5)
		if err != nil {
			return err
		}
		sigm1, err := it.r.readBits(6)
		if err != nil {
			return err
		}
		it.leading = uint8(lead)
		it.sigbits = uint8(sigm1) + 1
		if uint(it.leading)+uint(it.sigbits) > 64 {
			// The encoder always satisfies lead+sig+trail == 64; a wider
			// window is malformed input and the unsigned shift below would
			// underflow into silent value corruption.
			return ErrCorrupt
		}
	} else if it.leading == 0xff {
		return ErrCorrupt // window reuse before any window was defined
	}
	xbits, err := it.r.readBits(uint(it.sigbits))
	if err != nil {
		return err
	}
	shift := 64 - uint(it.leading) - uint(it.sigbits)
	it.v ^= xbits << shift
	return nil
}

// seriesBlocks lists a series' compressed blocks in time order, the head
// block last as a chunk of its own.
func seriesBlocks(s *Series) []*chunk {
	blocks := append([]*chunk(nil), s.sealed...)
	if s.head.Len() > 0 {
		blocks = append(blocks, &chunk{minTS: s.headMinTS, maxTS: s.head.LastTS(), count: s.head.Len(), payload: s.head.Bytes()})
	}
	return blocks
}

// refRange is Series.Range through the reference decoder: the same block
// pruning as Series.Iter, every surviving block decoded bit by bit. On a
// corrupt block it returns the valid prefix and ErrCorrupt.
func refRange(s *Series, from, to int64) ([]Sample, error) {
	var out []Sample
	for _, c := range seriesBlocks(s) {
		if to <= from || c.maxTS < from || c.minTS >= to {
			continue
		}
		it := NewIterator(c.payload, c.count)
		for it.Next() {
			if smp := it.Sample(); smp.TS >= to {
				return out, nil
			} else if smp.TS >= from {
				out = append(out, smp)
			}
		}
		if it.Err() != nil {
			return out, it.Err()
		}
	}
	return out, nil
}
