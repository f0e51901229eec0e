// Package store implements VAP's embedded spatio-temporal storage engine,
// the stand-in for the paper's PostgreSQL + PostGIS data layer. It stores
// per-meter consumption time series in compressed chunks (Facebook Gorilla
// style: delta-of-delta timestamps, XOR floats), keeps meter metadata in a
// catalog with an R-tree spatial index, and provides durability through a
// write-ahead log plus snapshots.
package store

import "encoding/binary"

// bitWriter writes bits MSB-first a word at a time: the pending bits sit
// at the top of acc until 64 of them fill a word, which is appended to
// data big-endian, so data holds exactly the bytes a byte-at-a-time writer
// would have written.
type bitWriter struct {
	data []byte // whole words written so far
	acc  uint64 // the pending bits, left-aligned
	n    uint   // pending bit count, < 64
}

func newBitWriter() *bitWriter { return &bitWriter{} }

// writeBit appends a single bit.
func (w *bitWriter) writeBit(bit bool) {
	if bit {
		w.acc |= 1 << (63 - w.n)
	}
	if w.n++; w.n == 64 {
		w.data = binary.BigEndian.AppendUint64(w.data, w.acc)
		w.acc, w.n = 0, 0
	}
}

// writeBits appends the low nbits (at most 64) of v, MSB first.
func (w *bitWriter) writeBits(v uint64, nbits uint) {
	v &= 1<<nbits - 1 // a shift by 64 is 0, so nbits == 64 keeps every bit
	free := 64 - w.n
	if nbits < free {
		w.acc |= v << (free - nbits)
		w.n += nbits
		return
	}
	w.data = binary.BigEndian.AppendUint64(w.data, w.acc|v>>(nbits-free))
	w.n = nbits - free
	w.acc = v << (64 - w.n) // the bits left over; 0 when none are
}

// size returns the encoded length in bytes, the last one partly padding.
func (w *bitWriter) size() int { return len(w.data) + int(w.n+7)/8 }

// bytes returns a copy of the encoded bytes; the final byte may contain
// padding zeros. It writes nothing to w: readers under a shared lock call
// it side by side.
func (w *bitWriter) bytes() []byte {
	out := make([]byte, w.size())
	var word [8]byte
	binary.BigEndian.PutUint64(word[:], w.acc)
	copy(out[copy(out, w.data):], word[:])
	return out
}

// reset empties the writer, keeping its buffer.
func (w *bitWriter) reset() { *w = bitWriter{data: w.data[:0]} }
