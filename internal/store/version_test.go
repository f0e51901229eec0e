package store

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"vap/internal/geo"
)

// TestPairHashIsFNV1a pins the inline pair hash to hash/fnv's 64-bit FNV-1a
// over the pair's little-endian bytes: selection_fingerprint is a sum of
// these, and clients compare it across responses.
func TestPairHashIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		id, ver := rng.Int63()-rng.Int63(), rng.Uint64()
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], ver)
		h := fnv.New64a()
		h.Write(buf[:])
		if got, want := pairHash(id, ver), h.Sum64(); got != want {
			t.Fatalf("pairHash(%d, %d) = %#x, want %#x", id, ver, got, want)
		}
	}
}

// TestOnePassReadsMatchPerMeter: Fingerprint and SeriesStats lock each
// owning shard once for the whole id list; what they return equals a
// per-meter read, on one shard, on many, and past the 64 shards a lock set
// can name.
func TestOnePassReadsMatchPerMeter(t *testing.T) {
	for _, shards := range []int{1, 16, 128} {
		st, err := Open(Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		var ids []int64
		for id := int64(1); id <= 300; id++ {
			if err := st.PutMeter(randomMeter(rng, id)); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < int(id%5); k++ {
				if err := st.Append(id, Sample{TS: int64(1 + k), Value: 1}); err != nil {
					t.Fatal(err)
				}
			}
			ids = append(ids, id)
		}
		ids = append(ids, 9999) // unknown: version 0, zero stats
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

		stats := st.SeriesStats(ids)
		vers := make([]uint64, len(ids))
		for i, id := range ids {
			sh := st.shardFor(id)
			sh.mu.RLock()
			ser, ok := sh.series[id]
			var want SeriesStats
			if ok {
				want = ser.Stats()
			} else {
				want.MeterID = id
			}
			sh.mu.RUnlock()
			if stats[i] != want {
				t.Fatalf("%d shards, meter %d: stats %+v, want %+v", shards, id, stats[i], want)
			}
			vers[i] = want.Version
		}
		if got, want := st.Fingerprint(ids), FingerprintPairs(ids, vers); got != want {
			t.Fatalf("%d shards: Fingerprint %#x, FingerprintPairs %#x", shards, got, want)
		}
		st.Close()
	}
}

// TestVersionStampsStats holds the invariant core's cache hits rely on:
// every mutation that changes what Series.Stats reports bumps the meter's
// version, and nothing else moves either. A hit is admitted with the cost
// estimated from the stats of the versions its key holds, so a stats change
// without a version bump would admit a hit at a stale cost.
func TestVersionStampsStats(t *testing.T) {
	st, err := Open(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const id = 7
	read := func() SeriesStats { return st.SeriesStats([]int64{id})[0] }
	var last SeriesStats
	mutated := func(what string) {
		t.Helper()
		now := read()
		if now.Version == last.Version {
			t.Fatalf("%s did not bump the version (%d)", what, now.Version)
		}
		last = now
	}
	unchanged := func(what string) {
		t.Helper()
		if now := read(); now != last {
			t.Fatalf("%s changed the stats without a mutation: %+v -> %+v", what, last, now)
		}
	}

	m := Meter{ID: id, Location: geo.Point{Lon: 10, Lat: 55}, Zone: ZoneResidential}
	if err := st.PutMeter(m); err != nil {
		t.Fatal(err)
	}
	mutated("registration")
	// Past two seals (chunkTargetSamples each): every append moves the
	// head, and a seal moves blocks and bytes.
	for ts := int64(1); ts <= 2*chunkTargetSamples+10; ts++ {
		if err := st.Append(id, Sample{TS: ts * 3600, Value: float64(ts % 13)}); err != nil {
			t.Fatal(err)
		}
		mutated("an append")
	}
	if err := st.Append(id, Sample{TS: 3600, Value: 1}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	unchanged("a refused append")
	m.Zone, m.Location = ZoneCommercial, geo.Point{Lon: 10.5, Lat: 55.5}
	if err := st.PutMeter(m); err != nil {
		t.Fatal(err)
	}
	mutated("a re-put")

	sh := st.shardFor(id)
	// A snapshot install stamps a series exactly as replaying its samples
	// would: registration plus one per sample.
	sh.mu.RLock()
	chunks, headPayload, headCount := sh.series[id].captureChunks()
	sh.mu.RUnlock()
	head, err := Decode(headPayload, headCount)
	if err != nil {
		t.Fatal(err)
	}
	installed := NewSeries(id)
	if err := installed.installChunks(chunks, head); err != nil {
		t.Fatal(err)
	}
	if got, want := installed.Stats().Version, uint64(1+installed.Stats().Samples); got != want {
		t.Fatalf("installed series version %d, want %d", got, want)
	}
}
