// Package store implements VAP's embedded spatio-temporal storage engine,
// the stand-in for the paper's PostgreSQL + PostGIS data layer. It stores
// per-meter consumption time series in compressed chunks (Facebook Gorilla
// style: delta-of-delta timestamps, XOR floats), keeps meter metadata in a
// catalog with an R-tree spatial index, and provides durability through a
// write-ahead log plus snapshots.
package store

import "errors"

// ErrEndOfStream signals a reader has consumed all bits.
var ErrEndOfStream = errors.New("store: end of bit stream")

// bitWriter writes bits MSB-first into a growing byte slice.
type bitWriter struct {
	data  []byte
	avail uint // free bits in the last byte (0 when data is empty or full)
}

func newBitWriter() *bitWriter { return &bitWriter{} }

// writeBit appends a single bit.
func (w *bitWriter) writeBit(bit bool) {
	if w.avail == 0 {
		w.data = append(w.data, 0)
		w.avail = 8
	}
	if bit {
		w.data[len(w.data)-1] |= 1 << (w.avail - 1)
	}
	w.avail--
}

// writeBits appends the low nbits of v, MSB first.
func (w *bitWriter) writeBits(v uint64, nbits uint) {
	for nbits > 0 {
		if w.avail == 0 {
			w.data = append(w.data, 0)
			w.avail = 8
		}
		take := nbits
		if take > w.avail {
			take = w.avail
		}
		shift := nbits - take
		chunk := byte((v >> shift) & ((1 << take) - 1))
		w.data[len(w.data)-1] |= chunk << (w.avail - take)
		w.avail -= take
		nbits -= take
	}
}

// bytes returns the encoded bytes. The final byte may contain padding zeros.
func (w *bitWriter) bytes() []byte { return w.data }

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
