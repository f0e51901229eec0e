package store

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, samples []Sample) {
	t.Helper()
	enc := NewEncoder()
	for _, s := range samples {
		if err := enc.Append(s); err != nil {
			t.Fatalf("append %v: %v", s, err)
		}
	}
	got, err := Decode(enc.Bytes(), enc.Len())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(samples) {
		t.Fatalf("decoded %d, want %d", len(got), len(samples))
	}
	for i := range samples {
		if got[i].TS != samples[i].TS {
			t.Fatalf("ts[%d] = %d, want %d", i, got[i].TS, samples[i].TS)
		}
		if got[i].Value != samples[i].Value && !(math.IsNaN(got[i].Value) && math.IsNaN(samples[i].Value)) {
			t.Fatalf("v[%d] = %v, want %v", i, got[i].Value, samples[i].Value)
		}
	}
}

func TestGorillaSingle(t *testing.T) {
	roundTrip(t, []Sample{{TS: 1514764800, Value: 1.25}})
}

func TestGorillaRegularHourly(t *testing.T) {
	samples := make([]Sample, 1000)
	for i := range samples {
		samples[i] = Sample{TS: 1514764800 + int64(i)*3600, Value: float64(i % 24)}
	}
	roundTrip(t, samples)
}

func TestGorillaConstantValues(t *testing.T) {
	samples := make([]Sample, 500)
	for i := range samples {
		samples[i] = Sample{TS: int64(i) * 3600, Value: 3.14}
	}
	roundTrip(t, samples)
	// Constant regular series should compress extremely well: first sample
	// costs 16 bytes, then ~2 bits per sample.
	enc := NewEncoder()
	for _, s := range samples {
		_ = enc.Append(s)
	}
	if enc.SizeBytes() > 16+500/4+16 {
		t.Errorf("constant series uses %d bytes for 500 samples", enc.SizeBytes())
	}
}

func TestGorillaIrregularTimestamps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := int64(1e9)
	samples := make([]Sample, 300)
	for i := range samples {
		ts += 1 + int64(rng.Intn(100000))
		samples[i] = Sample{TS: ts, Value: rng.NormFloat64() * 1000}
	}
	roundTrip(t, samples)
}

func TestGorillaSpecialValues(t *testing.T) {
	roundTrip(t, []Sample{
		{TS: 1, Value: 0},
		{TS: 2, Value: math.Inf(1)},
		{TS: 3, Value: math.Inf(-1)},
		{TS: 4, Value: math.MaxFloat64},
		{TS: 5, Value: math.SmallestNonzeroFloat64},
		{TS: 6, Value: -0.0},
		{TS: 7, Value: math.NaN()},
		{TS: 8, Value: 42},
	})
}

func TestGorillaNegativeDeltas(t *testing.T) {
	// Delta-of-delta can be negative with slowing cadence.
	roundTrip(t, []Sample{
		{TS: 0, Value: 1}, {TS: 100, Value: 2}, {TS: 150, Value: 3},
		{TS: 160, Value: 4}, {TS: 161, Value: 5},
	})
}

func TestGorillaLargeDeltas(t *testing.T) {
	roundTrip(t, []Sample{
		{TS: 0, Value: 1},
		{TS: 1 << 40, Value: 2},
		{TS: 1<<40 + 10, Value: 3},
	})
}

func TestGorillaOutOfOrderRejected(t *testing.T) {
	enc := NewEncoder()
	if err := enc.Append(Sample{TS: 100, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Append(Sample{TS: 100, Value: 2}); err != ErrOutOfOrder {
		t.Errorf("equal ts: err = %v, want ErrOutOfOrder", err)
	}
	if err := enc.Append(Sample{TS: 99, Value: 2}); err != ErrOutOfOrder {
		t.Errorf("smaller ts: err = %v, want ErrOutOfOrder", err)
	}
}

func TestGorillaCompressionRatio(t *testing.T) {
	// Smooth smart-meter-like data should beat 2x compression easily.
	samples := make([]Sample, 2000)
	for i := range samples {
		samples[i] = Sample{
			TS:    1514764800 + int64(i)*3600,
			Value: math.Round(100*(1+0.5*math.Sin(float64(i)/24*2*math.Pi))) / 100,
		}
	}
	enc := NewEncoder()
	for _, s := range samples {
		_ = enc.Append(s)
	}
	raw := len(samples) * 16
	if ratio := float64(raw) / float64(enc.SizeBytes()); ratio < 2 {
		t.Errorf("compression ratio = %.2f, want >= 2", ratio)
	}
}

func TestGorillaDecodeTruncated(t *testing.T) {
	enc := NewEncoder()
	for i := 0; i < 100; i++ {
		_ = enc.Append(Sample{TS: int64(i) * 60, Value: float64(i)})
	}
	data := enc.Bytes()
	// Claim more samples than encoded.
	if _, err := Decode(data, 200); err == nil {
		t.Error("decode with inflated count should fail")
	}
	// Truncated payload.
	if _, err := Decode(data[:4], 100); err == nil {
		t.Error("decode of truncated payload should fail")
	}
}

func TestGorillaIterator(t *testing.T) {
	enc := NewEncoder()
	for i := 0; i < 50; i++ {
		_ = enc.Append(Sample{TS: int64(i), Value: float64(i) * 1.5})
	}
	it := NewIterator(enc.Bytes(), 50)
	n := 0
	for it.Next() {
		s := it.Sample()
		if s.TS != int64(n) || s.Value != float64(n)*1.5 {
			t.Fatalf("iter[%d] = %+v", n, s)
		}
		n++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if n != 50 {
		t.Fatalf("iterated %d, want 50", n)
	}
	// Next after exhaustion stays false.
	if it.Next() {
		t.Error("Next after end returned true")
	}
}

func TestGorillaQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		samples := make([]Sample, n)
		ts := rng.Int63n(1 << 40)
		for i := range samples {
			ts += 1 + rng.Int63n(1<<20)
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
			samples[i] = Sample{TS: ts, Value: v}
		}
		enc := NewEncoder()
		for _, s := range samples {
			if err := enc.Append(s); err != nil {
				return false
			}
		}
		got, err := Decode(enc.Bytes(), n)
		if err != nil || len(got) != n {
			return false
		}
		for i := range samples {
			if got[i] != samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitStreamRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		w := newBitWriter()
		for _, v := range vals {
			w.writeBits(uint64(v), 16)
		}
		r := newBitReader(w.bytes())
		for _, v := range vals {
			got, err := r.readBits(16)
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitStreamMixedWidths(t *testing.T) {
	w := newBitWriter()
	w.writeBit(true)
	w.writeBits(0b101, 3)
	w.writeBits(0xdeadbeef, 32)
	w.writeBit(false)
	w.writeBits(0x3f, 6)
	r := newBitReader(w.bytes())
	if b, _ := r.readBit(); !b {
		t.Fatal("bit 1")
	}
	if v, _ := r.readBits(3); v != 0b101 {
		t.Fatalf("3 bits = %b", v)
	}
	if v, _ := r.readBits(32); v != 0xdeadbeef {
		t.Fatalf("32 bits = %x", v)
	}
	if b, _ := r.readBit(); b {
		t.Fatal("bit 0")
	}
	if v, _ := r.readBits(6); v != 0x3f {
		t.Fatalf("6 bits = %x", v)
	}
	if _, err := r.readBit(); err == nil {
		// Depending on padding, remaining bits may exist in the final byte;
		// reading beyond must eventually fail.
		for i := 0; i < 16; i++ {
			if _, err := r.readBit(); err != nil {
				return
			}
		}
		t.Error("reader never reached end of stream")
	}
}

// bitLen returns the number of meaningful bits written.
func (w *bitWriter) bitLen() int { return len(w.data)*8 - int(w.avail) }

func TestBitLen(t *testing.T) {
	w := newBitWriter()
	if w.bitLen() != 0 {
		t.Fatalf("empty bitLen = %d", w.bitLen())
	}
	w.writeBit(true)
	w.writeBits(0, 10)
	if w.bitLen() != 11 {
		t.Fatalf("bitLen = %d, want 11", w.bitLen())
	}
}
