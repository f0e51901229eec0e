package store

// Edge-path tests rounding out the durability matrix: closed/sticky WAL
// error propagation, replay callback failures, CRC-valid-but-malformed
// payloads, snapshot truncation, and the small read-side accessors.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestWALClosedErrors(t *testing.T) {
	w, err := openWAL(osFS{}, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSamples(1, []Sample{{TS: 1, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSamples(1, []Sample{{TS: 2, Value: 1}}); !errors.Is(err, ErrWALClosed) {
		t.Errorf("append after close = %v, want ErrWALClosed", err)
	}
	if err := w.Sync(); !errors.Is(err, ErrWALClosed) {
		t.Errorf("sync after close = %v, want ErrWALClosed", err)
	}
	if _, err := w.CutSegment(); !errors.Is(err, ErrWALClosed) {
		t.Errorf("cut after close = %v, want ErrWALClosed", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWALClosed) {
		t.Errorf("second close = %v, want ErrWALClosed", err)
	}
}

// TestWALStickyCommitError: after a commit fails, every later append,
// sync, and cut must fail fast with the original error — the log must
// never silently stop persisting while memory runs ahead.
func TestWALStickyCommitError(t *testing.T) {
	w, err := openWAL(osFS{}, Options{Dir: t.TempDir(), CommitInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendSamples(1, []Sample{{TS: 1, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	w.mu.Lock()
	w.err = boom
	w.mu.Unlock()
	w.commit() // the pending batch must be failed, not silently dropped

	if err := w.AppendSamples(1, []Sample{{TS: 2, Value: 1}}); !errors.Is(err, boom) {
		t.Errorf("append after sticky failure = %v, want %v", err, boom)
	}
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Errorf("sync after sticky failure = %v, want %v", err, boom)
	}
	if _, err := w.CutSegment(); !errors.Is(err, boom) {
		t.Errorf("cut after sticky failure = %v, want %v", err, boom)
	}
}

func TestWALReplayCallbackErrors(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(osFS{}, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneMixed}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSamples(1, []Sample{{TS: 1, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	boom := errors.New("callback refused")
	if err := w.Replay(func(Meter) error { return boom }, nil); !errors.Is(err, boom) {
		t.Errorf("meter callback error = %v, want %v", err, boom)
	}
	if err := w.Replay(nil, func(int64, Sample) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("sample callback error = %v, want %v", err, boom)
	}
}

// TestWALMeterZoneLengthMismatch: a frame whose CRC is valid but whose
// meter payload lies about its zone length cannot come from a torn write —
// it is corruption even in the tail, and must fail the open.
func TestWALMeterZoneLengthMismatch(t *testing.T) {
	dir := t.TempDir()
	payload := appendMeter(nil, Meter{ID: 1, Zone: "abc"})
	payload[24] = 0xFF // zlen now inconsistent with the payload length
	seg := append([]byte(nil), walMagic[:]...)
	seg = appendFrame(seg, recMeter, payload)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openWAL(osFS{}, Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zone-length lie accepted: %v", err)
	}
}

// TestSnapshotTruncationMatrix: a snapshot file cut off at any point —
// header, meter table, sample runs, trailing CRC — must fail the open
// rather than load a partial dataset.
func TestSnapshotTruncationMatrix(t *testing.T) {
	tpl := buildTemplate(t, 5)
	st, err := Open(Options{Dir: tpl})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(tpl, "snapshot.vap"))
	if err != nil {
		t.Fatal(err)
	}
	// A cut measured from the file's size is named by the measure, so a
	// change of the snapshot's size leaves every subtest's name as it was.
	cuts := []struct {
		name string
		at   int
	}{{"0", 0}, {"3", 3}, {"4", 4}, {"7", 7}, {"8", 8}, {"20", 20},
		{"half", len(snap) / 2}, {"len-5", len(snap) - 5}, {"len-1", len(snap) - 1}}
	for _, c := range cuts {
		cut := c.at
		t.Run("cut="+c.name, func(t *testing.T) {
			dir := cloneDir(t, tpl)
			if err := os.WriteFile(filepath.Join(dir, "snapshot.vap"), snap[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(Options{Dir: dir}); err == nil {
				t.Error("truncated snapshot loaded without error")
			}
		})
	}
}

func TestStoreReadAccessors(t *testing.T) {
	st, err := Open(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumShards() != 4 {
		t.Errorf("NumShards = %d", st.NumShards())
	}
	for id := int64(1); id <= 3; id++ {
		if err := st.PutMeter(Meter{ID: id, Location: testPoint(float64(id)*0.01, 0), Zone: ZoneIndustrial}); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(id, Sample{TS: 60, Value: float64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if f, l, err := st.Bounds(1); err != nil || f != 60 || l != 60 {
		t.Errorf("Bounds = %d, %d, %v", f, l, err)
	}
	if _, _, err := st.Bounds(99); !errors.Is(err, ErrUnknownMeter) {
		t.Errorf("Bounds(unknown) = %v", err)
	}
	before := st.GlobalFingerprint()
	if err := st.Append(2, Sample{TS: 120, Value: 2}); err != nil {
		t.Fatal(err)
	}
	if st.GlobalFingerprint() == before {
		t.Error("GlobalFingerprint did not change on append")
	}
	cat := st.Catalog()
	if ids := cat.IDs(); len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Errorf("Catalog.IDs = %v", ids)
	}
	if got := len(cat.All()); got != 3 {
		t.Errorf("Catalog.All = %d meters", got)
	}
	box := cat.Bounds()
	if ids := st.Within(box.Buffer(0.001)); len(ids) != 3 {
		t.Errorf("Within(bounds) = %v", ids)
	}

	// Per-meter versions through the series and its iterators.
	v := meterVersion(st, 2)
	if v == 0 {
		t.Errorf("meter version = %d", v)
	}
	it, err := st.Iter(2, minInt64, maxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if it.Version() != v {
		t.Errorf("iterator version %d != meter version %d", it.Version(), v)
	}
	if _, err := drainBatches(t, it); err != nil {
		t.Fatal(err)
	}
}

// TestPutMeterValidationBeforeWAL: an invalid meter must be rejected
// before anything reaches the log (replay would refuse it and fail the
// reopen otherwise).
func TestPutMeterValidationBeforeWAL(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(999, 0)}); err == nil {
		t.Fatal("invalid location accepted")
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if meters, samples := replayDirCounts(t, dir); meters != 0 || samples != 0 {
		t.Errorf("invalid meter reached the WAL: %d meters / %d samples on disk", meters, samples)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALCutSegmentCoversInFlightCommit: a buffered record the committer
// has swapped out of the current batch but not yet written still belongs
// below the cut. CutSegment used to see a bare tail with nothing pending,
// skip the rotation and hand out the tail's own index as the watermark —
// the in-flight batch then landed at or above it, outlived the snapshot
// that already covered it, and replayed on recovery (every meter's version
// one too high: flaky TestRecoveryParity).
func TestWALCutSegmentCoversInFlightCommit(t *testing.T) {
	w, err := openWAL(osFS{}, Options{Dir: t.TempDir(), CommitInterval: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 300; i++ {
		if err := w.AppendMeter(testMeter(int64(i + 1))); err != nil {
			t.Fatal(err)
		}
		// Give the ticker a chance to pick the record up, so the cut races
		// the write instead of finding the record still pending.
		time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
		cut, err := w.CutSegment()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil { // waits out whatever was in flight
			t.Fatal(err)
		}
		w.mu.Lock()
		idx, size := w.tailIdx, w.tailSize
		w.mu.Unlock()
		if idx != cut || size != walHeaderLen {
			t.Fatalf("iteration %d: cut at segment %d, but a record enqueued before it sits in segment %d (%d bytes past the header)",
				i, cut, idx, size-walHeaderLen)
		}
	}
}
