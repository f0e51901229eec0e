package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"vap/internal/geo"
)

func testMeter(id int64) Meter {
	return Meter{
		ID:       id,
		Location: geo.Point{Lon: 12.5 + float64(id)*0.001, Lat: 55.6},
		Zone:     ZoneResidential,
	}
}

// seriesLen and meterVersion read one meter's sample count and version
// (0 for an unknown meter) the way production callers do.
func seriesLen(st *Store, id int64) int { return st.SeriesStats([]int64{id})[0].Samples }

func meterVersion(st *Store, id int64) uint64 { return st.SeriesStats([]int64{id})[0].Version }

func TestSeriesAppendRange(t *testing.T) {
	s := NewSeries(1)
	for i := 0; i < 2000; i++ {
		if err := s.Append(Sample{TS: int64(i) * 3600, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2000 {
		t.Fatalf("len = %d", s.Len())
	}
	got, err := s.Range(100*3600, 110*3600)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("range len = %d, want 10", len(got))
	}
	for i, smp := range got {
		if smp.TS != int64(100+i)*3600 || smp.Value != float64(100+i) {
			t.Fatalf("range[%d] = %+v", i, smp)
		}
	}
	// Half-open: 'to' excluded.
	got, _ = s.Range(0, 3600)
	if len(got) != 1 || got[0].TS != 0 {
		t.Fatalf("half-open range = %v", got)
	}
	// Empty and inverted windows.
	if got, _ := s.Range(50, 50); got != nil {
		t.Error("empty window should return nil")
	}
	if got, _ := s.Range(100, 50); got != nil {
		t.Error("inverted window should return nil")
	}
}

func TestSeriesSpansChunks(t *testing.T) {
	s := NewSeries(1)
	n := chunkTargetSamples*3 + 17
	for i := 0; i < n; i++ {
		if err := s.Append(Sample{TS: int64(i), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("all = %d, want %d", len(all), n)
	}
	for i, smp := range all {
		if smp.TS != int64(i) {
			t.Fatalf("all[%d].TS = %d", i, smp.TS)
		}
	}
	// A range crossing a chunk boundary.
	got, _ := s.Range(int64(chunkTargetSamples-5), int64(chunkTargetSamples+5))
	if len(got) != 10 {
		t.Fatalf("cross-chunk range = %d, want 10", len(got))
	}
}

func TestSeriesBounds(t *testing.T) {
	s := NewSeries(1)
	if _, _, err := s.Bounds(); err != ErrEmptySeries {
		t.Errorf("empty bounds err = %v", err)
	}
	_ = s.Append(Sample{TS: 5, Value: 1})
	_ = s.Append(Sample{TS: 9, Value: 2})
	f, l, err := s.Bounds()
	if err != nil || f != 5 || l != 9 {
		t.Errorf("bounds = %d,%d (%v)", f, l, err)
	}
}

func TestSeriesOutOfOrder(t *testing.T) {
	s := NewSeries(1)
	_ = s.Append(Sample{TS: 10, Value: 1})
	if err := s.Append(Sample{TS: 10, Value: 2}); err != ErrOutOfOrder {
		t.Errorf("err = %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("failed append changed len: %d", s.Len())
	}
}

func TestCatalogCRUD(t *testing.T) {
	c := NewCatalog()
	if err := c.Put(testMeter(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testMeter(2)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	m, ok := c.Get(1)
	if !ok || m.ID != 1 {
		t.Fatalf("get: %v %v", m, ok)
	}
	if _, ok := c.Get(99); ok {
		t.Error("get missing should fail")
	}
	// Replace relocates in the index.
	moved := testMeter(1)
	moved.Location = geo.Point{Lon: 13.0, Lat: 56.0}
	if err := c.Put(moved); err != nil {
		t.Fatal(err)
	}
	ids := c.Within(geo.NewBBox(geo.Point{Lon: 12.9, Lat: 55.9}, geo.Point{Lon: 13.1, Lat: 56.1}))
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("relocated search = %v", ids)
	}
}

func TestCatalogRejectsInvalidLocation(t *testing.T) {
	c := NewCatalog()
	bad := Meter{ID: 1, Location: geo.Point{Lon: 999, Lat: 0}}
	if err := c.Put(bad); err == nil {
		t.Error("invalid location should fail")
	}
}

func TestCatalogByZoneAndNear(t *testing.T) {
	c := NewCatalog()
	for i := int64(1); i <= 10; i++ {
		m := testMeter(i)
		if i%2 == 0 {
			m.Zone = ZoneCommercial
		}
		if err := c.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	// Meter i sits at lon offset 0.001*i: a box reaching 0.0035 east of
	// the origin holds the three nearest.
	near := c.Within(geo.PointBox(geo.Point{Lon: 12.5, Lat: 55.6}).Buffer(0.0035))
	if len(near) != 3 || near[0] != 1 {
		t.Fatalf("near = %v, want [1 2 3]", near)
	}
}

func TestStoreInMemoryBasics(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeter(testMeter(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, Sample{TS: 100, Value: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(99, Sample{TS: 100, Value: 1}); err != ErrUnknownMeter {
		t.Errorf("unknown meter err = %v", err)
	}
	got, err := st.Range(1, 0, 200)
	if err != nil || len(got) != 1 {
		t.Fatalf("range: %v %v", got, err)
	}
	if n := seriesLen(st, 1); n != 1 {
		t.Fatalf("series len = %d", n)
	}
	stats := st.Stats()
	if stats.Meters != 1 || stats.Samples != 1 || stats.RawBytes != 16 {
		t.Errorf("stats = %+v", stats)
	}
	if err := st.Snapshot(); err == nil {
		t.Error("snapshot of in-memory store should fail")
	}
}

func TestStoreAppendBatch(t *testing.T) {
	st, _ := Open(Options{})
	defer st.Close()
	_ = st.PutMeter(testMeter(1))
	batch := make([]Sample, 100)
	for i := range batch {
		batch[i] = Sample{TS: int64(i), Value: float64(i)}
	}
	n, err := st.AppendBatch(1, batch)
	if err != nil || n != 100 {
		t.Fatalf("batch: n=%d err=%v", n, err)
	}
	// Batch with an out-of-order element stops midway.
	bad := []Sample{{TS: 200, Value: 1}, {TS: 150, Value: 2}}
	n, err = st.AppendBatch(1, bad)
	if err != ErrOutOfOrder || n != 1 {
		t.Fatalf("bad batch: n=%d err=%v", n, err)
	}
}

// TestAppendEqualsAppendBatchOfOne pins Append as the one-sample case of
// AppendBatch: the same operations fed to two durable stores, one through
// each call, must return the same errors and leave the same WAL bytes, the
// same versions and fingerprints, and the same state after a reopen.
func TestAppendEqualsAppendBatchOfOne(t *testing.T) {
	type op struct {
		meter int64
		smp   Sample
	}
	var ops []op
	var last2 Sample
	for i := 0; i < chunkTargetSamples+40; i++ { // meter 1 seals a chunk
		ops = append(ops, op{1, Sample{TS: int64(i+1) * 60, Value: float64(i % 13)}})
		if i%9 == 0 {
			last2 = Sample{TS: int64(i+1) * 60, Value: -float64(i)}
			ops = append(ops, op{2, last2})
		}
	}
	ops = append(ops,
		op{1, Sample{TS: 60, Value: 1}}, // out of order
		op{2, last2},                    // duplicate timestamp
		op{99, Sample{TS: 1, Value: 1}}, // unknown meter
		op{2, Sample{TS: int64(chunkTargetSamples+100) * 60, Value: 7.5}}, // accepted again after the rejects
	)
	ids := []int64{1, 2, 99}

	for _, mode := range []struct {
		name string
		opts Options
		sync bool // Sync after every call
		ops  []op
	}{
		// Every record is its own commit, so marker positions are fixed.
		{"sync", Options{}, true, ops[len(ops)-30:]},
		// Nothing commits before Close: one batch holds the whole log.
		{"buffered", Options{CommitInterval: time.Hour}, false, ops},
	} {
		t.Run(mode.name, func(t *testing.T) {
			open := func(dir string) *Store {
				t.Helper()
				o := mode.opts
				o.Dir = dir
				st, err := Open(o)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			same := func(when string, a, b *Store) {
				t.Helper()
				if a.Version() != b.Version() {
					t.Errorf("%s: Version %d != %d", when, a.Version(), b.Version())
				}
				if !reflect.DeepEqual(a.ShardVersions(), b.ShardVersions()) {
					t.Errorf("%s: ShardVersions %v != %v", when, a.ShardVersions(), b.ShardVersions())
				}
				if a.Fingerprint(ids) != b.Fingerprint(ids) || a.GlobalFingerprint() != b.GlobalFingerprint() {
					t.Errorf("%s: fingerprints differ", when)
				}
				if !reflect.DeepEqual(a.SeriesStats(ids), b.SeriesStats(ids)) {
					t.Errorf("%s: SeriesStats %+v != %+v", when, a.SeriesStats(ids), b.SeriesStats(ids))
				}
				for _, id := range ids[:2] {
					ra, errA := a.Range(id, minInt64, maxInt64)
					rb, errB := b.Range(id, minInt64, maxInt64)
					if errA != nil || errB != nil || !reflect.DeepEqual(ra, rb) {
						t.Errorf("%s: meter %d ranges differ (%d vs %d samples, %v, %v)", when, id, len(ra), len(rb), errA, errB)
					}
				}
			}
			batchOfOne := func(st *Store, o op) error {
				n, err := st.AppendBatch(o.meter, []Sample{o.smp})
				if (n == 1) != (err == nil) {
					t.Fatalf("AppendBatch of one stored %d with err %v", n, err)
				}
				return err
			}
			commit := func(sts ...*Store) {
				t.Helper()
				if !mode.sync {
					return
				}
				for _, st := range sts {
					if err := st.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}

			dirA, dirB := t.TempDir(), t.TempDir()
			a, b := open(dirA), open(dirB)
			for _, st := range []*Store{a, b} {
				for _, id := range ids[:2] {
					if err := st.PutMeter(testMeter(id)); err != nil {
						t.Fatal(err)
					}
					commit(st)
				}
			}
			rejected := 0
			for i, o := range mode.ops {
				errA, errB := a.Append(o.meter, o.smp), batchOfOne(b, o)
				commit(a, b)
				if errA != errB {
					t.Fatalf("op %d %+v: Append err %v, AppendBatch err %v", i, o, errA, errB)
				}
				if errA != nil {
					rejected++
				}
			}
			if rejected != 3 {
				t.Fatalf("%d operations rejected, want 3 (out of order, duplicate, unknown meter)", rejected)
			}
			same("before close", a, b)
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			late := op{1, Sample{TS: 1 << 40, Value: 1}}
			if errA, errB := a.Append(late.meter, late.smp), batchOfOne(b, late); errA != ErrClosed || errB != ErrClosed {
				t.Fatalf("after close: Append err %v, AppendBatch err %v, want ErrClosed twice", errA, errB)
			}

			segsA, err := listSegments(dirA)
			if err != nil {
				t.Fatal(err)
			}
			segsB, err := listSegments(dirB)
			if err != nil || !reflect.DeepEqual(segsA, segsB) {
				t.Fatalf("segments %v vs %v (err %v)", segsA, segsB, err)
			}
			for _, idx := range segsA {
				wa, errA := os.ReadFile(filepath.Join(dirA, segmentName(idx)))
				wb, errB := os.ReadFile(filepath.Join(dirB, segmentName(idx)))
				if errA != nil || errB != nil {
					t.Fatal(errA, errB)
				}
				if !bytes.Equal(wa, wb) {
					t.Fatalf("segment %d: %d bytes through Append, %d through AppendBatch, or different content", idx, len(wa), len(wb))
				}
			}

			a, b = open(dirA), open(dirB)
			defer a.Close()
			defer b.Close()
			same("after reopen", a, b)
			if got, want := seriesLen(a, 1)+seriesLen(a, 2), len(mode.ops)-rejected; got != want {
				t.Fatalf("reopened store holds %d samples, want the %d accepted", got, want)
			}
		})
	}
}

func TestStoreTimeBounds(t *testing.T) {
	st, _ := Open(Options{})
	defer st.Close()
	if _, _, ok := st.TimeBounds(); ok {
		t.Error("empty store should have no bounds")
	}
	_ = st.PutMeter(testMeter(1))
	_ = st.PutMeter(testMeter(2))
	_ = st.Append(1, Sample{TS: 100, Value: 1})
	_ = st.Append(2, Sample{TS: 50, Value: 1})
	_ = st.Append(2, Sample{TS: 300, Value: 1})
	f, l, ok := st.TimeBounds()
	if !ok || f != 50 || l != 300 {
		t.Errorf("bounds = %d,%d,%v", f, l, ok)
	}
}

func TestStoreDurabilityWALReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_ = st.PutMeter(testMeter(1))
	for i := 0; i < 50; i++ {
		if err := st.Append(1, Sample{TS: int64(i), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: WAL replay must restore everything.
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Range(1, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("replayed %d samples, want 50", len(got))
	}
	if m, ok := st2.Catalog().Get(1); !ok || m.Zone != ZoneResidential {
		t.Fatalf("meter not replayed: %v %v", m, ok)
	}
}

func TestStoreSnapshotAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 5; id++ {
		_ = st.PutMeter(testMeter(id))
		for i := 0; i < 100; i++ {
			_ = st.Append(id, Sample{TS: int64(i) * 60, Value: float64(i) + float64(id)})
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Covered segments must be deleted after a snapshot: one bare tail left.
	if segs, bytes := st.WALStats(); segs != 1 || bytes > 16 {
		t.Errorf("wal after snapshot = %d segments / %d bytes, want 1 bare tail", segs, bytes)
	}
	if st.Stats().LastSnapshotUnix == 0 {
		t.Error("snapshot did not record its completion time")
	}
	// Post-snapshot appends land in the WAL.
	_ = st.Append(1, Sample{TS: 100 * 60, Value: 999})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Stats().Meters != 5 {
		t.Fatalf("meters = %d", st2.Stats().Meters)
	}
	got, _ := st2.Range(1, 0, 1<<40)
	if len(got) != 101 {
		t.Fatalf("samples after snapshot+wal = %d, want 101", len(got))
	}
	if got[100].Value != 999 {
		t.Fatalf("post-snapshot sample = %v", got[100])
	}
}

func TestStoreSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(Options{Dir: dir})
	_ = st.PutMeter(testMeter(1))
	_ = st.Append(1, Sample{TS: 1, Value: 2})
	_ = st.Snapshot()
	_ = st.Close()
	// Flip a byte in the snapshot body.
	path := filepath.Join(dir, "snapshot.vap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Error("corrupted snapshot should fail to load")
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(Options{Dir: dir})
	_ = st.PutMeter(testMeter(1))
	for i := 0; i < 20; i++ {
		_ = st.Append(1, Sample{TS: int64(i), Value: float64(i)})
	}
	_ = st.Close()
	// Truncate the tail segment mid-record to simulate a crash during write.
	path := tailSegmentPath(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail must not break recovery: %v", err)
	}
	defer st2.Close()
	got, _ := st2.Range(1, 0, 1000)
	if len(got) != 19 { // last record lost, everything else intact
		t.Fatalf("recovered %d samples, want 19", len(got))
	}
}

func TestWALRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(osFS{}, Options{Dir: dir}); err == nil {
		t.Error("foreign segment file should be rejected")
	}
	// Same through the legacy single-file migration path.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, legacyWALName), []byte("not a wal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(osFS{}, Options{Dir: dir2}); err == nil {
		t.Error("foreign legacy wal.log should be rejected")
	}
}

func TestStoreConcurrentReadersAndWriter(t *testing.T) {
	st, _ := Open(Options{})
	defer st.Close()
	for id := int64(1); id <= 4; id++ {
		_ = st.PutMeter(testMeter(id))
	}
	var wg sync.WaitGroup
	// One writer per meter, several readers.
	for id := int64(1); id <= 4; id++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = st.Append(id, Sample{TS: int64(i), Value: float64(i)})
			}
		}(id)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(42)))
			for i := 0; i < 200; i++ {
				id := int64(rng.Intn(4) + 1)
				_, _ = st.Range(id, 0, 1000)
				_ = st.Stats()
				_, _, _ = st.TimeBounds()
			}
		}()
	}
	wg.Wait()
	for id := int64(1); id <= 4; id++ {
		if n := seriesLen(st, id); n != 500 {
			t.Fatalf("meter %d has %d samples, want 500", id, n)
		}
	}
}

// tailSegmentPath returns the highest-numbered WAL segment in dir.
func tailSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	idxs, err := listSegments(dir)
	if err != nil || len(idxs) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	return filepath.Join(dir, segmentName(idxs[len(idxs)-1]))
}

// replayDirCounts scans every segment in dir (torn-tail tolerant, like
// recovery would) and returns the record counts.
func replayDirCounts(t *testing.T, dir string) (meters, samples int) {
	t.Helper()
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range idxs {
		path := filepath.Join(dir, segmentName(idx))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = scanSegment(path, data, i == len(idxs)-1,
			func(Meter) error { meters++; return nil },
			func(int64, Sample) error { samples++; return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	return meters, samples
}

func TestStoreVersionBumpsOnMutation(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v0 := st.Version()
	if err := st.PutMeter(testMeter(1)); err != nil {
		t.Fatal(err)
	}
	v1 := st.Version()
	if v1 <= v0 {
		t.Fatalf("PutMeter did not bump version: %d -> %d", v0, v1)
	}
	if err := st.Append(1, Sample{TS: 1, Value: 2}); err != nil {
		t.Fatal(err)
	}
	v2 := st.Version()
	if v2 <= v1 {
		t.Fatalf("Append did not bump version: %d -> %d", v1, v2)
	}
	if _, err := st.AppendBatch(1, []Sample{{TS: 2, Value: 3}, {TS: 3, Value: 4}}); err != nil {
		t.Fatal(err)
	}
	v3 := st.Version()
	if v3 <= v2 {
		t.Fatalf("AppendBatch did not bump version: %d -> %d", v2, v3)
	}
	// Reads must not bump.
	if _, err := st.Range(1, 0, 10); err != nil {
		t.Fatal(err)
	}
	st.Stats()
	if st.Version() != v3 {
		t.Fatalf("read bumped version: %d -> %d", v3, st.Version())
	}
	// Failed mutations must not bump.
	if err := st.Append(99, Sample{TS: 1, Value: 1}); err != ErrUnknownMeter {
		t.Fatalf("expected ErrUnknownMeter, got %v", err)
	}
	if err := st.Append(1, Sample{TS: 1, Value: 1}); err != ErrOutOfOrder {
		t.Fatalf("expected ErrOutOfOrder, got %v", err)
	}
	if st.Version() != v3 {
		t.Fatalf("failed mutation bumped version: %d -> %d", v3, st.Version())
	}
}

func TestStoreMeterVersionsAndFingerprint(t *testing.T) {
	st, _ := Open(Options{Shards: 4})
	defer st.Close()
	_ = st.PutMeter(testMeter(1))
	_ = st.PutMeter(testMeter(2))
	v1 := meterVersion(st, 1)
	if v1 != 1 {
		t.Fatalf("fresh meter version = %d, want 1", v1)
	}
	if v := meterVersion(st, 99); v != 0 {
		t.Fatalf("unknown meter version = %d, want 0", v)
	}
	fpBoth := st.Fingerprint([]int64{1, 2})
	fpOne := st.Fingerprint([]int64{2})
	fpAll := st.Fingerprint(nil)
	if fpAll != fpBoth {
		t.Fatalf("nil ids should fingerprint all meters: %d != %d", fpAll, fpBoth)
	}

	// Appending to meter 1 must change fingerprints containing it and
	// leave disjoint fingerprints untouched.
	if err := st.Append(1, Sample{TS: 10, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if got := meterVersion(st, 1); got != v1+1 {
		t.Fatalf("append did not bump per-meter version: %d", got)
	}
	if got := meterVersion(st, 2); got != 1 {
		t.Fatalf("append to meter 1 bumped meter 2: %d", got)
	}
	if st.Fingerprint([]int64{1, 2}) == fpBoth {
		t.Fatal("fingerprint containing mutated meter did not change")
	}
	if st.Fingerprint([]int64{2}) != fpOne {
		t.Fatal("fingerprint disjoint from mutated meter changed")
	}

	// Replacing meter metadata is a mutation of that meter too.
	moved := testMeter(2)
	moved.Location.Lon += 0.5
	if err := st.PutMeter(moved); err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint([]int64{2}) == fpOne {
		t.Fatal("metadata replacement did not change the meter's fingerprint")
	}
}

func TestStoreShardVersionsBumpIndependently(t *testing.T) {
	st, _ := Open(Options{Shards: 8})
	defer st.Close()
	// Register enough meters that at least two shards are populated.
	for id := int64(1); id <= 32; id++ {
		_ = st.PutMeter(testMeter(id))
	}
	before := st.ShardVersions()
	populated := 0
	for _, v := range before {
		if v > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("32 meters landed on %d shards; hash is clustering", populated)
	}
	_ = st.Append(1, Sample{TS: 1, Value: 1})
	after := st.ShardVersions()
	changed := 0
	for i := range after {
		if after[i] != before[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("one append changed %d shard versions, want 1", changed)
	}
}

func TestStoreCloseReturnsErrClosed(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_ = st.PutMeter(testMeter(1))
	if err := st.Append(1, Sample{TS: 1, Value: 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Every mutation after close fails cleanly instead of writing to a
	// closed WAL.
	if err := st.Close(); err != ErrClosed {
		t.Errorf("second Close err = %v, want ErrClosed", err)
	}
	if err := st.Append(1, Sample{TS: 2, Value: 3}); err != ErrClosed {
		t.Errorf("Append after close err = %v, want ErrClosed", err)
	}
	if _, err := st.AppendBatch(1, []Sample{{TS: 3, Value: 4}}); err != ErrClosed {
		t.Errorf("AppendBatch after close err = %v, want ErrClosed", err)
	}
	if err := st.PutMeter(testMeter(2)); err != ErrClosed {
		t.Errorf("PutMeter after close err = %v, want ErrClosed", err)
	}
	if err := st.Snapshot(); err != ErrClosed {
		t.Errorf("Snapshot after close err = %v, want ErrClosed", err)
	}
	// Reads keep serving the in-memory data.
	if got, err := st.Range(1, 0, 10); err != nil || len(got) != 1 {
		t.Errorf("read after close: %v %v", got, err)
	}
}

func TestStoreShardedSnapshotWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Spread meters across shards with uneven series lengths.
	const meters = 20
	for id := int64(1); id <= meters; id++ {
		if err := st.PutMeter(testMeter(id)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(10*id); i++ {
			if err := st.Append(id, Sample{TS: int64(i) * 60, Value: float64(i) + float64(id)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot appends land in the WAL and must replay on top.
	for id := int64(1); id <= meters; id += 3 {
		if err := st.Append(id, Sample{TS: 1 << 30, Value: 42}); err != nil {
			t.Fatal(err)
		}
	}
	wantVers := make(map[int64]uint64, meters)
	wantLens := make(map[int64]int, meters)
	for id := int64(1); id <= meters; id++ {
		wantVers[id] = meterVersion(st, id)
		wantLens[id] = seriesLen(st, id)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a DIFFERENT shard count: durability must be independent
	// of the sharding layout.
	st2, err := Open(Options{Dir: dir, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Stats().Meters != meters {
		t.Fatalf("meters after reopen = %d, want %d", st2.Stats().Meters, meters)
	}
	for id := int64(1); id <= meters; id++ {
		if n := seriesLen(st2, id); n != wantLens[id] {
			t.Errorf("meter %d: %d samples after reopen, want %d", id, n, wantLens[id])
		}
		if v := meterVersion(st2, id); v != wantVers[id] {
			t.Errorf("meter %d: version %d after reopen, want %d", id, v, wantVers[id])
		}
		got, err := st2.Range(id, 0, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != wantLens[id] {
			t.Errorf("meter %d: range returned %d samples, want %d", id, len(got), wantLens[id])
		}
		if id%3 == 1 {
			if last := got[len(got)-1]; last.TS != 1<<30 || last.Value != 42 {
				t.Errorf("meter %d: WAL tail sample not replayed: %+v", id, last)
			}
		}
	}
}

func TestSeriesIterStreamsWindow(t *testing.T) {
	s := NewSeries(1)
	n := chunkTargetSamples*2 + 100
	for i := 0; i < n; i++ {
		if err := s.Append(Sample{TS: int64(i) * 10, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A window crossing the chunk/head boundary.
	from := int64((chunkTargetSamples*2 - 5) * 10)
	to := int64((chunkTargetSamples*2 + 5) * 10)
	got, err := drainBatches(t, s.Iter(from, to))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("iter yielded %d samples, want 10", len(got))
	}
	for i, smp := range got {
		want := int64(chunkTargetSamples*2-5+i) * 10
		if smp.TS != want {
			t.Fatalf("got[%d].TS = %d, want %d", i, smp.TS, want)
		}
	}
	// Iterator agrees with Range on the full series.
	all, err := s.Range(minInt64, maxInt64)
	if err != nil || len(all) != n {
		t.Fatalf("range all = %d (%v), want %d", len(all), err, n)
	}
	// Empty and inverted windows terminate immediately.
	if it := s.Iter(50, 50); it.NextBatch(NewBatch()) {
		t.Error("empty window iterator yielded a sample")
	}
	if it := s.Iter(100, 50); it.NextBatch(NewBatch()) {
		t.Error("inverted window iterator yielded a sample")
	}
}

func TestSeriesIterSnapshotUnaffectedByAppend(t *testing.T) {
	st, _ := Open(Options{})
	defer st.Close()
	_ = st.PutMeter(testMeter(1))
	for i := 0; i < 100; i++ {
		_ = st.Append(1, Sample{TS: int64(i), Value: float64(i)})
	}
	it, err := st.Iter(1, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Appends after iterator construction must not surface mid-iteration.
	for i := 100; i < 200; i++ {
		_ = st.Append(1, Sample{TS: int64(i), Value: float64(i)})
	}
	got, err := drainBatches(t, it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("iterator saw %d samples, want the 100 snapshotted", len(got))
	}
}
