package store

import (
	"math"
	"math/rand"
	"testing"
)

// randSeries builds a series with irregular timestamps and adversarial
// values (NaN with distinct payloads, ±Inf, -0.0, subnormals) — the value
// classes the Gorilla fuzz corpus exercises.
func randSeries(t *testing.T, rng *rand.Rand, n int) *Series {
	t.Helper()
	ser := NewSeries(1)
	ts := rng.Int63n(1 << 30)
	for i := 0; i < n; i++ {
		ts += 1 + rng.Int63n(40000) // irregular gaps crossing every dod window
		var v float64
		switch rng.Intn(8) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Float64frombits(0x7ff8000000000001) // NaN, distinct payload
		case 2:
			v = math.Inf(1)
		case 3:
			v = math.Inf(-1)
		case 4:
			v = math.Float64frombits(0x8000000000000000) // -0.0
		case 5:
			v = math.Float64frombits(uint64(rng.Int63n(100) + 1)) // subnormal
		default:
			v = rng.NormFloat64() * 100
		}
		if err := ser.Append(Sample{TS: ts, Value: v}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return ser
}

// drainBatches reads an iterator to its end through NextBatch, returning
// what it yielded (the valid prefix on a decode error) and Err.
func drainBatches(t *testing.T, it *SeriesIter) ([]Sample, error) {
	t.Helper()
	b := NewBatch()
	var got []Sample
	for it.NextBatch(b) {
		if b.Len() == 0 {
			t.Fatal("NextBatch returned true with an empty batch")
		}
		if b.Len() > BatchSize {
			t.Fatalf("batch overflow: %d > %d", b.Len(), BatchSize)
		}
		got = b.appendTo(got)
	}
	return got, it.Err()
}

// sameSamples compares bit for bit: NaN payloads and -0.0 must survive.
func sameSamples(t *testing.T, what string, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, reference decoder %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].TS != want[i].TS ||
			math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: sample %d = (%d, %#x), reference (%d, %#x)",
				what, i, got[i].TS, math.Float64bits(got[i].Value),
				want[i].TS, math.Float64bits(want[i].Value))
		}
	}
}

// TestNextBatchMatchesNext is the decoder parity property: over random
// series and windows (empty, inside one block, across sealed chunks and
// the head, clipped on both sides), NextBatch, Series.Range and Decode must
// yield bit for bit the samples the reference decoder (gorilla_ref_test.go)
// yields, and on a truncated payload the same valid prefix and ErrCorrupt.
func TestNextBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(ser *Series, from, to int64) {
		t.Helper()
		want, err := refRange(ser, from, to)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainBatches(t, ser.Iter(from, to))
		if err != nil {
			t.Fatal(err)
		}
		sameSamples(t, "NextBatch", got, want)
		got, err = ser.Range(from, to)
		if err != nil {
			t.Fatal(err)
		}
		sameSamples(t, "Range", got, want)
	}
	for trial := 0; trial < 60; trial++ {
		// Cross the seal boundary (720) regularly so multi-chunk series and
		// the private head copy are both exercised.
		n := 1 + rng.Intn(2200)
		ser := randSeries(t, rng, n)
		first, last, _ := ser.Bounds()
		span := last - first + 1
		check(ser, minInt64, maxInt64) // full scan
		check(ser, first, last+1)
		check(ser, first+span/2, first+span/2) // empty
		check(ser, last, first)                // inverted
		check(ser, first+1, first+span/8)      // inside the first block
		check(ser, first+span/8, last)         // clipped on both sides, sealed chunks + head
		for w := 0; w < 4; w++ {
			from := first + rng.Int63n(span+1) - span/4
			check(ser, from, from+rng.Int63n(span+1))
		}
		// Every block on its own through Decode.
		var all []Sample
		for _, c := range seriesBlocks(ser) {
			got, err := Decode(c.payload, c.count)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, got...)
		}
		want, _ := refRange(ser, minInt64, maxInt64)
		sameSamples(t, "Decode", all, want)
	}

	// A sealed chunk cut in half, between two intact ones.
	ser := randSeries(t, rng, 3*chunkTargetSamples+10)
	cut := *ser.sealed[1]
	cut.payload = cut.payload[:len(cut.payload)/2]
	ser.sealed[1] = &cut
	want, err := refRange(ser, minInt64, maxInt64)
	if err != ErrCorrupt || len(want) <= chunkTargetSamples || len(want) >= 2*chunkTargetSamples {
		t.Fatalf("reference decoder: %d samples, err %v; want a prefix ending inside the second chunk and ErrCorrupt", len(want), err)
	}
	got, err := drainBatches(t, ser.Iter(minInt64, maxInt64))
	if err != ErrCorrupt {
		t.Fatalf("NextBatch err = %v, want ErrCorrupt", err)
	}
	sameSamples(t, "NextBatch on a truncated chunk", got, want)
	if got, err := ser.Range(minInt64, maxInt64); err != ErrCorrupt || got != nil {
		t.Fatalf("Range on a truncated chunk = %d samples, %v; want none and ErrCorrupt", len(got), err)
	}
	if got, err := Decode(cut.payload, cut.count); err != ErrCorrupt || got != nil {
		t.Fatalf("Decode of a truncated chunk = %d samples, %v; want none and ErrCorrupt", len(got), err)
	}
	// A window that ends before the damage never decodes it.
	check(ser, minInt64, ser.sealed[0].maxTS+1)
}

// TestNextBatchCorruptPayload: a corrupt sealed payload must surface the
// valid prefix and then the same error the scalar path reports, never a
// panic.
func TestNextBatchCorruptPayload(t *testing.T) {
	enc := NewEncoder()
	for i := 0; i < 100; i++ {
		if err := enc.Append(Sample{TS: int64(i) * 60, Value: float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	payload := enc.Bytes()
	ser := &Series{MeterID: 1, head: NewEncoder(), ver: 1, total: 100}
	ser.sealed = append(ser.sealed, &chunk{
		minTS: 0, maxTS: 99 * 60, count: 100,
		payload: payload[:len(payload)/2], // truncated: decode must run dry
	})

	it := ser.Iter(minInt64, maxInt64)
	b := NewBatch()
	decoded := 0
	for it.NextBatch(b) {
		decoded += b.Len()
	}
	if it.Err() != ErrCorrupt {
		t.Fatalf("err = %v, want ErrCorrupt", it.Err())
	}
	if decoded == 0 || decoded >= 100 {
		t.Fatalf("decoded %d samples from a half payload, want a proper prefix", decoded)
	}
}

func TestSeriesStats(t *testing.T) {
	ser := NewSeries(42)
	st := ser.Stats()
	if st.MeterID != 42 || st.Samples != 0 || st.Blocks != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	n := chunkTargetSamples + 5 // one sealed chunk + a live head
	for i := 0; i < n; i++ {
		if err := ser.Append(Sample{TS: 100 + int64(i)*3600, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st = ser.Stats()
	if st.Samples != n {
		t.Fatalf("Samples = %d, want %d", st.Samples, n)
	}
	if st.Blocks != 2 {
		t.Fatalf("Blocks = %d, want 2 (sealed + head)", st.Blocks)
	}
	if st.MinTS != 100 || st.MaxTS != 100+int64(n-1)*3600 {
		t.Fatalf("bounds [%d, %d] wrong", st.MinTS, st.MaxTS)
	}
	if st.CompressedBytes <= 0 || st.CompressedBytes != ser.CompressedBytes() {
		t.Fatalf("CompressedBytes = %d", st.CompressedBytes)
	}
	if st.Version != ser.ver {
		t.Fatalf("Version = %d, want %d", st.Version, ser.ver)
	}
}

func TestStoreSeriesStats(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for id := int64(1); id <= 3; id++ {
		if err := st.PutMeter(testMeter(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(2, Sample{TS: int64(i+1) * 60, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.SeriesStats([]int64{2, 99, 1})
	if len(stats) != 3 {
		t.Fatalf("len = %d", len(stats))
	}
	if stats[0].MeterID != 2 || stats[0].Samples != 10 || stats[0].Blocks != 1 {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
	if stats[1].MeterID != 99 || stats[1].Samples != 0 || stats[1].Version != 0 {
		t.Fatalf("unknown meter stats = %+v", stats[1])
	}
	if stats[2].MeterID != 1 || stats[2].Samples != 0 || stats[2].Version == 0 {
		t.Fatalf("registered empty meter stats = %+v", stats[2])
	}
}

// BenchmarkSeriesDecode pairs the reference decoder (gorilla_ref_test.go)
// against the shipping batch decoder over one multi-chunk series, reporting
// samples/sec so BENCH_vql.json can track the decode kernel directly.
func BenchmarkSeriesDecode(b *testing.B) {
	ser := NewSeries(1)
	rng := rand.New(rand.NewSource(3))
	const n = 90 * 24 // 90 days hourly, like the VQL end-to-end bench
	for i := 0; i < n; i++ {
		// Noisy values, like real meter readings: wide XOR windows make the
		// value decode representative instead of hitting the identical-value
		// fast path on every sample.
		v := 1.5 + float64(i%24) + rng.NormFloat64()*0.3
		if err := ser.Append(Sample{TS: int64(i) * 3600, Value: v}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Scalar", func(b *testing.B) {
		b.ReportAllocs()
		var sum float64
		blocks := seriesBlocks(ser)
		for i := 0; i < b.N; i++ {
			for _, c := range blocks {
				it := NewIterator(c.payload, c.count)
				for it.Next() {
					sum += it.Sample().Value
				}
				if err := it.Err(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		_ = sum
	})
	b.Run("Batch", func(b *testing.B) {
		b.ReportAllocs()
		batch := NewBatch()
		var sum float64
		for i := 0; i < b.N; i++ {
			it := ser.Iter(minInt64, maxInt64)
			for it.NextBatch(batch) {
				for _, v := range batch.Val {
					sum += v
				}
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
		_ = sum
	})
}
