// Package store implements VAP's embedded spatio-temporal storage engine,
// the stand-in for the paper's PostgreSQL + PostGIS data layer. It stores
// per-meter consumption time series in compressed chunks (Facebook Gorilla
// style: delta-of-delta timestamps, XOR floats), keeps meter metadata in a
// catalog with an R-tree spatial index, and provides durability through a
// write-ahead log plus snapshots.
package store

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
