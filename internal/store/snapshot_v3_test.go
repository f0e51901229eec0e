package store

// Tests for the chunk-verbatim snapshot layout VAP3 and VAP4 share (the
// names ending in V3 cover both; Snapshot writes VAP4): round-trips through
// the parallel loader, every-byte corruption and truncation (including the
// offset directory and footer), the legacy-format downgrade switch, the
// alloc-clamp hardening of the v1/v2 loaders, and the recovery stats
// surface.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"
)

// buildV3Template fills a fresh durable store with meters whose series
// span sealed chunks plus a live head, snapshots it (v4), adds
// post-snapshot appends that ride the WAL, closes it, and returns the dir.
func buildV3Template(t *testing.T, meters, samplesPer int) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, meters, samplesPer)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= int64(meters); id++ {
		if err := st.Append(id, Sample{TS: int64(samplesPer)*60 + 60, Value: 123.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func fillStore(t *testing.T, st *Store, meters, samplesPer int) {
	t.Helper()
	for id := int64(1); id <= int64(meters); id++ {
		if err := st.PutMeter(testMeter(id)); err != nil {
			t.Fatal(err)
		}
		smps := make([]Sample, samplesPer)
		for i := range smps {
			v := float64(i)*0.25 + float64(id)
			if i%97 == 0 {
				v = math.NaN() // rollup NaN accounting must survive recovery
			}
			smps[i] = Sample{TS: int64(i+1) * 60, Value: v}
		}
		if _, err := st.AppendBatch(id, smps); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotV3RoundTrip(t *testing.T) {
	// 1500 samples per meter: two sealed chunks (720 each) plus a 60-sample
	// head, so all three section parts are non-trivial.
	dir := buildV3Template(t, 6, 1500)
	// Meter 7 reports hourly, with one half-hour extra sample and a NaN:
	// its hourly tier is dense pages around a one-bucket general page. It
	// gets no post-snapshot sample, so every page it holds after the reopen
	// is one the load built. Meters 1..6 get a second post-snapshot sample,
	// 30 s after the first, for the WAL to replay.
	{
		st, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutMeter(testMeter(7)); err != nil {
			t.Fatal(err)
		}
		var smps []Sample
		for i := 0; i < 1000; i++ {
			v := float64(i) * 0.5
			if i == 321 {
				v = math.NaN()
			}
			smps = append(smps, Sample{TS: int64(i+1) * 3600, Value: v})
			if i == 500 {
				smps = append(smps, Sample{TS: int64(i+1)*3600 + 1800, Value: 1})
			}
		}
		if _, err := st.AppendBatch(7, smps); err != nil {
			t.Fatal(err)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		for id := int64(1); id <= 6; id++ {
			if err := st.Append(id, Sample{TS: 1501*60 + 30, Value: 123.5}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.vap"))
	if err != nil {
		t.Fatal(err)
	}
	if [4]byte(raw[:4]) != snapMagicV4 {
		t.Fatalf("default snapshot magic = %q, want VAP4", raw[:4])
	}

	for _, workers := range []int{1, 8} {
		// A copy per reopen: the live appends below must not reach the next.
		st, err := openOn(workers, Options{Dir: cloneDir(t, dir)})
		if err != nil {
			t.Fatalf("reopen with %d workers: %v", workers, err)
		}
		if got := st.Stats().Meters; got != 7 {
			t.Fatalf("workers=%d: meters = %d, want 7", workers, got)
		}
		for id := int64(1); id <= 6; id++ {
			smps, err := st.Range(id, minInt64, maxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if len(smps) != 1502 {
				t.Fatalf("workers=%d meter %d: %d samples, want 1502", workers, id, len(smps))
			}
			if smps[1500].Value != 123.5 || smps[1501].Value != 123.5 {
				t.Fatalf("workers=%d meter %d: post-snapshot WAL sample = %v", workers, id, smps[1500])
			}
		}
		checkRollupsRebuilt(t, st)
		// No loaded page, of either kind, holds more room than buckets
		// (trim's bound), and no append ever copies or grows one: the WAL
		// replay folded into its last bucket in place, a second sample in a
		// dense page's last bucket moves only that bucket out, and the live
		// appends below, a general run after it, open new pages.
		loaded := map[[2]int64][]pageShape{}
		var kinds [2]int // general and dense pages loaded
		for _, sh := range st.shards {
			for id, ser := range sh.series {
				// A loaded chunk owns its payload: one that aliased the
				// section it was read from would keep the whole section
				// (tiers included) alive behind it.
				for _, c := range ser.sealed {
					if cap(c.payload) > 2*len(c.payload)+64 {
						t.Errorf("workers=%d meter %d: chunk payload of %d bytes pins %d", workers, id, len(c.payload), cap(c.payload))
					}
				}
				for _, tier := range ser.rollups {
					for i := range tier.pages {
						p := shapeOf(&tier.pages[i])
						if p.cap > 2*p.len {
							t.Errorf("workers=%d meter %d: loaded %ds page of %d buckets has capacity %d", workers, id, tier.res, p.len, p.cap)
						}
						kinds[btoi(p.dense)]++
						loaded[[2]int64{id, tier.res}] = append(loaded[[2]int64{id, tier.res}], p)
					}
				}
			}
		}
		if kinds[0] == 0 || kinds[1] < 2 {
			t.Errorf("workers=%d: loaded %d general and %d dense pages, want both kinds", workers, kinds[0], kinds[1])
		}
		// Meter 7's first live sample is a second one in its last loaded
		// hour: that bucket moves out to a general page, and the loaded
		// dense page it leaves stays where it is, one bucket shorter.
		hourly := loaded[[2]int64{7, 3600}]
		hourly[len(hourly)-1].len--
		for id := int64(1); id <= 7; id++ {
			smps := make([]Sample, 600) // ten more hours (25 days for meter 7), past the loaded pages
			for i := range smps {
				smps[i] = Sample{TS: 1501*60 + int64(i+1)*60, Value: float64(i)}
				if id == 7 {
					smps[i].TS = 1000*3600 + int64(i+1)*3600
				}
			}
			if id == 7 {
				smps = append([]Sample{{TS: 1000*3600 + 1800, Value: 2}}, smps...)
			}
			if _, err := st.AppendBatch(id, smps); err != nil {
				t.Fatal(err)
			}
		}
		checkRollupsRebuilt(t, st)
		for _, sh := range st.shards {
			for id, ser := range sh.series {
				for _, tier := range ser.rollups {
					for i, want := range loaded[[2]int64{id, tier.res}] {
						if i >= len(tier.pages) || shapeOf(&tier.pages[i]) != want {
							t.Errorf("workers=%d meter %d: appends moved or grew the loaded %ds page %d", workers, id, tier.res, i)
						}
					}
				}
			}
		}
		rec := st.Recovery()
		if rec.SnapshotFormat != "v4" || rec.SnapshotMeters != 7 || rec.SnapshotChunks != 13 {
			t.Errorf("workers=%d: recovery stats = %+v", workers, rec)
		}
		if rec.WALRecords == 0 {
			t.Errorf("workers=%d: recovery reported no WAL records", workers)
		}
		st.Close()
	}
}

// pageShape is where a tier page's array starts, its length and capacity,
// and its kind.
type pageShape struct {
	at       unsafe.Pointer
	len, cap int
	dense    bool
}

func shapeOf(p *tierPage) pageShape {
	if p.vals != nil {
		return pageShape{unsafe.Pointer(unsafe.SliceData(p.vals)), len(p.vals), cap(p.vals), true}
	}
	return pageShape{unsafe.Pointer(unsafe.SliceData(p.gen)), len(p.gen), cap(p.gen), false}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestYearAppendAllocatesWhatItKeeps: one AppendBatch of a year of hourly
// samples into a fresh two-tier series allocates each tier once, one page
// at the size the batch reserves, so it allocates little more than the
// tier pages and chunk payloads it keeps. Tiers grown by append
// re-allocated and copied themselves at every growth step: over four times
// what was kept. The hourly tier is one dense page: 8 bytes an hour.
func TestYearAppendAllocatesWhatItKeeps(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeter(testMeter(1)); err != nil {
		t.Fatal(err)
	}
	smps := make([]Sample, 8760)
	for i := range smps {
		smps[i] = Sample{TS: 1483228800 + int64(i)*3600, Value: float64(i%24) * 0.37}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := st.AppendBatch(1, smps); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc

	ser := st.shardFor(1).series[1]
	kept := uint64(cap(ser.head.w.data))
	for _, c := range ser.sealed {
		kept += uint64(cap(c.payload))
	}
	for _, tier := range ser.rollups {
		if len(tier.pages) != 1 {
			t.Errorf("%ds tier: the batch allocated %d pages, want 1", tier.res, len(tier.pages))
		}
		var bytes uint64
		for _, p := range tier.pages {
			bytes += uint64(cap(p.vals))*denseBucketBytes + uint64(cap(p.gen))*rollupBucketBytes
		}
		if want := uint64(8760+tierPageBuckets) * denseBucketBytes; tier.res == 3600 && bytes > want {
			t.Errorf("hourly tier keeps %d bytes for a year of hourly samples, want at most %d", bytes, want)
		}
		kept += bytes
	}
	t.Logf("allocated %d bytes to keep %d (%.3fx)", allocated, kept, float64(allocated)/float64(kept))
	if float64(allocated) >= 1.2*float64(kept) {
		t.Errorf("a year's AppendBatch allocated %d bytes to keep %d (%.2fx), want under 1.2x", allocated, kept, float64(allocated)/float64(kept))
	}
}

// TestSnapshotV3EveryByteFlipDetected proves the layout has no unprotected
// bytes: flipping any sampled byte — header, chunk payload, head samples,
// tiers, offset directory, footer — must fail the open. (The issue's
// "truncated chunk directories" case is the directory/footer span here and
// the truncation sweep below.)
func TestSnapshotV3EveryByteFlipDetected(t *testing.T) {
	dir := buildV3Template(t, 2, 800)
	path := filepath.Join(dir, "snapshot.vap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the WAL so a corrupt-but-ignored snapshot cannot be masked by
	// replayed records.
	step := len(raw) / 97
	if step < 1 {
		step = 1
	}
	for off := 0; off < len(raw); off += step {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir}); err == nil {
			t.Fatalf("byte flip at offset %d/%d loaded cleanly", off, len(raw))
		}
	}
}

// TestSnapshotV3TruncationDetected sweeps truncation points across the
// file — inside the header, meter sections, the offset directory, and the
// footer — and demands every one fails the open instead of silently
// loading a prefix.
func TestSnapshotV3TruncationDetected(t *testing.T) {
	dir := buildV3Template(t, 3, 900)
	path := filepath.Join(dir, "snapshot.vap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, 4, 12, len(raw) / 3, len(raw) / 2, 2 * len(raw) / 3}
	// Directory and footer cuts, byte by byte through the whole trailer.
	dirOff := int(binary.LittleEndian.Uint64(raw[len(raw)-snapV3FooterLen:]))
	for c := dirOff - 2; c < len(raw); c += 3 {
		cuts = append(cuts, c)
	}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(raw) {
			continue
		}
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir}); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded cleanly", cut, len(raw))
		}
	}
}

// TestSnapshotV3DirectoryOutOfBounds patches directory entries to point
// outside the section region; the loader must reject them before reading.
func TestSnapshotV3DirectoryOutOfBounds(t *testing.T) {
	dir := buildV3Template(t, 2, 100)
	path := filepath.Join(dir, "snapshot.vap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dirOff := int(binary.LittleEndian.Uint64(raw[len(raw)-snapV3FooterLen:]))
	for _, patch := range []struct {
		name string
		fn   func(ent []byte)
	}{
		{"offsetPastDirectory", func(ent []byte) { binary.LittleEndian.PutUint64(ent[8:], uint64(len(raw))) }},
		{"lengthOverrunsSections", func(ent []byte) { binary.LittleEndian.PutUint64(ent[16:], uint64(len(raw))) }},
		{"offsetIntoHeader", func(ent []byte) { binary.LittleEndian.PutUint64(ent[8:], 0) }},
	} {
		t.Run(patch.name, func(t *testing.T) {
			mut := append([]byte(nil), raw...)
			patch.fn(mut[dirOff : dirOff+snapV3DirEntryLen])
			// Re-seal the directory CRC so only the bounds check can object.
			binary.LittleEndian.PutUint32(mut[len(mut)-8:],
				crc32.ChecksumIEEE(mut[dirOff:len(mut)-snapV3FooterLen]))
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("out-of-bounds directory entry: Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// legacySnapshotDir returns a fresh durability directory whose snapshot is
// the named golden file under testdata/legacy — files written once by the
// last build that still had the v1 / v2 / v3 writer, or the VAP4 writer
// that wrote tiers.
func legacySnapshotDir(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.vap"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSnapshotV2StillLoads: a VAP2 file still loads. testdata/legacy/v2.vap
// is fillStore(3, 1500) snapshotted under a 6 h raw horizon, by a build
// whose snapshots could age raw chunks out: each meter keeps the 780
// samples inside it. The file's tiers covered the whole 25 h history; they
// are skipped, and the loaded tiers are the fold of the 780 samples. The
// store re-snapshots as VAP4 and reloads to the same state.
func TestSnapshotV2StillLoads(t *testing.T) {
	dir := legacySnapshotDir(t, "v2.vap")
	v2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.Recovery().SnapshotFormat; got != "v2" {
		t.Errorf("recovery format = %q, want v2", got)
	}
	for id := int64(1); id <= 3; id++ {
		if n := seriesLen(v2, id); n != 780 {
			t.Errorf("meter %d has %d raw samples, want the 780 inside the horizon", id, n)
		}
	}
	checkRollupsRebuilt(t, v2)
	if err := v2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	v4, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer v4.Close()
	if got := v4.Recovery().SnapshotFormat; got != "v4" {
		t.Errorf("re-snapshot format = %q, want v4", got)
	}
	parityCompare(t, "v2 golden vs its v4 re-snapshot", v2, v4)
}

// writeRawSnapshot assembles a legacy-layout snapshot file from body bytes
// plus the whole-file CRC the v1/v2 loaders verify first — so a test can
// place absurd interior counts behind a valid checksum.
func writeRawSnapshot(t *testing.T, dir string, body []byte) {
	t.Helper()
	data := make([]byte, len(body)+4)
	copy(data, body)
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, "snapshot.vap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySnapshotCountClamps pins the alloc-clamp hardening: corrupt
// count/length fields that pass the whole-file CRC (e.g. written by a
// buggy tool) must fail with ErrCorrupt instead of provoking multi-GB
// allocations in the v1/v2 loaders.
func TestLegacySnapshotCountClamps(t *testing.T) {
	app := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	lon := math.Float64bits(12.5)
	lat := math.Float64bits(55.6)
	cases := []struct {
		name string
		body func() []byte
	}{
		{"v2HugeResolutionCount", func() []byte {
			b := append([]byte(nil), snapMagicV2[:]...)
			return binary.LittleEndian.AppendUint32(b, 0x7fffffff)
		}},
		{"v2HugeBucketCount", func() []byte {
			b := append([]byte(nil), snapMagicV2[:]...)
			b = binary.LittleEndian.AppendUint32(b, 1) // nRes
			b = app(b, 3600)                           // res
			b = binary.LittleEndian.AppendUint32(b, 1) // nMeters
			b = app(b, 1, lon, lat)                    // id, location
			b = binary.LittleEndian.AppendUint16(b, 0) // zone len
			b = binary.LittleEndian.AppendUint32(b, 0) // nSamples
			return binary.LittleEndian.AppendUint32(b, 0x7fffffff)
		}},
		{"v1HugeZoneLength", func() []byte {
			b := append([]byte(nil), snapMagic[:]...)
			b = binary.LittleEndian.AppendUint32(b, 1) // nMeters
			b = app(b, 1, lon, lat)                    // id, location
			return binary.LittleEndian.AppendUint16(b, 0xffff)
		}},
		{"v1TruncatedSampleRun", func() []byte {
			b := append([]byte(nil), snapMagic[:]...)
			b = binary.LittleEndian.AppendUint32(b, 1) // nMeters
			b = app(b, 1, lon, lat)                    // id, location
			b = binary.LittleEndian.AppendUint16(b, 0) // zone len
			return binary.LittleEndian.AppendUint32(b, 0x7fffffff)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRawSnapshot(t, dir, tc.body())
			_, err := Open(Options{Dir: dir})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLegacySnapshotStrictFraming: a VAPS / VAP2 file with bytes after its
// last meter, or holding one meter twice, fails with ErrCorrupt, as a VAP4
// file does; a well-formed one of the same meters loads. A VAP2 tier
// bucket is skipped, never read: one that folded no value yet holds a bound
// loads too, its meter's tiers the fold of its samples.
func TestLegacySnapshotStrictFraming(t *testing.T) {
	if unsafe.Sizeof(RollupBucket{}) != rollupBucketBytes {
		t.Fatalf("RollupBucket is %d bytes, rollupBucketBytes says %d", unsafe.Sizeof(RollupBucket{}), rollupBucketBytes)
	}
	app := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	meter := func(b []byte, id int64) []byte {
		b = appendMeter(b, testMeter(id))
		b = binary.LittleEndian.AppendUint32(b, 1) // nSamples
		return appendSample(b, Sample{TS: 60, Value: 1.5})
	}
	v1 := func(ids ...int64) []byte {
		b := binary.LittleEndian.AppendUint32(append([]byte(nil), snapMagic[:]...), uint32(len(ids)))
		for _, id := range ids {
			b = meter(b, id)
		}
		return b
	}
	// A VAP2 bucket is start, count, NaN tally, sum, min and max, then the
	// first and last values (here 1.5).
	v2Bucket := func(bkt Fold, ids ...int64) []byte {
		b := append([]byte(nil), snapMagicV2[:]...)
		b = binary.LittleEndian.AppendUint32(b, 1)                // nRes
		b = binary.LittleEndian.AppendUint64(b, 86400)            // res
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ids))) // nMeters
		for _, id := range ids {
			b = meter(b, id)
			b = binary.LittleEndian.AppendUint32(b, 1) // nBuckets
			b = app(b, 0, uint64(bkt.Count), uint64(bkt.NaN), math.Float64bits(bkt.Sum),
				math.Float64bits(bkt.Min), math.Float64bits(bkt.Max), math.Float64bits(1.5), math.Float64bits(1.5))
		}
		return b
	}
	v2 := func(ids ...int64) []byte {
		return v2Bucket(Fold{Count: 1, Sum: 1.5, Min: 1.5, Max: 1.5}, ids...)
	}
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"v1", v1(1, 2), true},
		{"v2", v2(1, 2), true},
		{"v1TrailingBytes", append(v1(1, 2), 0), false},
		{"v2TrailingBytes", append(v2(1, 2), 0, 0, 0, 0), false},
		{"v1RepeatedMeter", v1(1, 1), false},
		{"v2RepeatedMeter", v2(2, 1, 2), false},
		{"v2EmptyBucketWithBounds", v2Bucket(Fold{Min: 1.5, Max: math.Inf(-1)}, 1, 2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRawSnapshot(t, dir, tc.body)
			st, err := Open(Options{Dir: dir})
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if got := st.Stats().Samples; got != 2 {
					t.Errorf("loaded %d samples, want 2", got)
				}
				checkRollupsRebuilt(t, st)
				return
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestRecoveryStatsColdStart: an empty durability dir reports zeroed
// breakdown but the host's worker fan-out.
func TestRecoveryStatsColdStart(t *testing.T) {
	st, err := openOn(3, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := st.Recovery()
	if rec.SnapshotFormat != "" || rec.SnapshotMeters != 0 || rec.Workers != 3 {
		t.Errorf("cold-start recovery stats = %+v", rec)
	}
}
