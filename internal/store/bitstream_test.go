package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// refBitWriter is the reference writer: the byte-at-a-time bitWriter the
// store shipped before the word-at-a-time one. TestBitWriterMatchesRef
// holds the shipping writer to its bytes, and BenchmarkBitWriter/Ref keeps
// timing it.
type refBitWriter struct {
	data  []byte
	avail uint // free bits in the last byte (0 when data is empty or full)
}

func (w *refBitWriter) writeBit(bit bool) {
	if w.avail == 0 {
		w.data = append(w.data, 0)
		w.avail = 8
	}
	if bit {
		w.data[len(w.data)-1] |= 1 << (w.avail - 1)
	}
	w.avail--
}

func (w *refBitWriter) writeBits(v uint64, nbits uint) {
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

func (w *refBitWriter) bytes() []byte { return w.data }

func (w *refBitWriter) reset() { w.data, w.avail = w.data[:0], 0 }

// TestBitWriterMatchesRef writes random runs of single bits and of
// (v, nbits in [0, 64]) fields, with v's bits above nbits set at random, to
// both writers and compares their bytes, size and bit length after every
// write and across resets.
func TestBitWriterMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w, ref := newBitWriter(), &refBitWriter{}
	for round := 0; round < 200; round++ {
		w.reset()
		ref.reset()
		if len(w.bytes()) != 0 || w.size() != 0 || w.bitLen() != 0 {
			t.Fatalf("round %d: reset left %d bytes", round, len(w.bytes()))
		}
		writes := rng.Intn(300)
		for i := 0; i < writes; i++ {
			if rng.Intn(4) == 0 {
				bit := rng.Intn(2) == 1
				w.writeBit(bit)
				ref.writeBit(bit)
			} else {
				v, nbits := rng.Uint64(), uint(rng.Intn(65))
				w.writeBits(v, nbits)
				ref.writeBits(v, nbits)
			}
			got, want := w.bytes(), ref.bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d write %d: bytes %x, want %x", round, i, got, want)
			}
			if w.size() != len(want) || w.bitLen() != len(want)*8-int(ref.avail) {
				t.Fatalf("round %d write %d: size %d bitLen %d, want %d and %d",
					round, i, w.size(), w.bitLen(), len(want), len(want)*8-int(ref.avail))
			}
		}
	}
}

// BenchmarkBitWriter times the two writers on one chunk's worth of
// Gorilla-shaped fields: a 1-bit flag, then a short or a wide field.
func BenchmarkBitWriter(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	type field struct {
		v     uint64
		nbits uint
	}
	fields := make([]field, 4096)
	for i := range fields {
		fields[i] = field{rng.Uint64(), uint(1 + rng.Intn(2)*rng.Intn(64))}
	}
	b.Run("Ref", func(b *testing.B) {
		w := &refBitWriter{}
		for i := 0; i < b.N; i++ {
			w.reset()
			for _, f := range fields {
				w.writeBit(f.nbits > 1)
				w.writeBits(f.v, f.nbits)
			}
		}
	})
	b.Run("Word", func(b *testing.B) {
		w := newBitWriter()
		for i := 0; i < b.N; i++ {
			w.reset()
			for _, f := range fields {
				w.writeBit(f.nbits > 1)
				w.writeBits(f.v, f.nbits)
			}
		}
	})
}

// BenchmarkEncoderAppend is the in-process twin of the end-to-end
// benchmark's store.append_ns_per_sample: a year of hourly readings for
// 460 meters appended by AppendBatch in 720-sample frames, in memory,
// rollups off, so the Gorilla encoder is most of what it times.
func BenchmarkEncoderAppend(b *testing.B) {
	const meters, hours, frame = 460, 8760, 720
	rng := rand.New(rand.NewSource(9))
	readings := make([][]Sample, meters)
	for m := range readings {
		readings[m] = make([]Sample, hours)
		for h := range readings[m] {
			v := 0.5 + float64(h%24)*0.1 + rng.NormFloat64()*0.05
			readings[m][h] = Sample{TS: 1514764800 + int64(h)*3600, Value: v}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := Open(Options{RollupRes: []int64{}})
		if err != nil {
			b.Fatal(err)
		}
		for m := 0; m < meters; m++ {
			if err := st.PutMeter(testMeter(int64(m + 1))); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for h0 := 0; h0 < hours; h0 += frame {
			for m := 0; m < meters; m++ {
				if _, err := st.AppendBatch(int64(m+1), readings[m][h0:min(h0+frame, hours)]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*meters*hours), "ns/sample")
}
