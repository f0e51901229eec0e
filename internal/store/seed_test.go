package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// seedCounts is how many samples seedFill gives each meter: a short series,
// one that seals a chunk and keeps a head, a tiny one, and the hourly meter
// with dense tier pages.
var seedCounts = map[int64]int{1: 20, 2: chunkTargetSamples + 30, 3: 5, crashHourly: 2 * denseMinRun}

// seedFill is the seeded tests' dataset, loaded the way vapd loads its
// generated one: every meter, then each meter's samples in one batch.
func seedFill(s *Store) error {
	for id := range seedCounts {
		if err := s.PutMeter(Meter{ID: id, Location: testPoint(float64(id)*0.01, 0)}); err != nil {
			return err
		}
	}
	for id, smps := range seedWant() {
		if _, err := s.AppendBatch(id, smps); err != nil {
			return err
		}
	}
	return nil
}

// seedWant is what seedFill stores, keyed by meter.
func seedWant() map[int64][]Sample {
	out := map[int64][]Sample{}
	for id, n := range seedCounts {
		for i := 0; i < n; i++ {
			out[id] = append(out[id], crashSample(id, i))
		}
	}
	return out
}

// countingFill is seedFill that counts its calls.
func countingFill(calls *int) func(*Store) error {
	return func(s *Store) error {
		*calls++
		return seedFill(s)
	}
}

// TestSeededOpenWritesNoWAL: a seeded first start loads its data with the
// log detached and commits it by one snapshot: nothing but a segment
// header is ever written to the WAL. A reopen replays no WAL record and
// finds every sample in the snapshot; a reopen through OpenSeeded does not
// fill again.
func TestSeededOpenWritesNoWAL(t *testing.T) {
	fsys := newMemFS()
	calls := 0
	s, err := open(crashOpts(), fsys, countingFill(&calls))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range fsys.trace() {
		if _, seg := parseSegmentName(filepath.Base(op.name)); seg && op.kind == opWrite && (op.off != 0 || len(op.data) != walHeaderLen) {
			t.Errorf("the seeded open wrote %d bytes at %d to %s", len(op.data), op.off, op.name)
		}
	}
	rec := s.Recovery()
	if calls != 1 || rec.SeedSnapshotBytes == 0 || rec.WALRecords != 0 {
		t.Fatalf("first start: fill ran %d times, seed snapshot %d bytes, %d WAL records; want 1, > 0, 0", calls, rec.SeedSnapshotBytes, rec.WALRecords)
	}
	if _, bytes := s.WALStats(); bytes > walHeaderLen {
		t.Errorf("the WAL holds %d bytes after a seeded start, want its header alone", bytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := seedWant()
	total := 0
	for _, smps := range want {
		total += len(smps)
	}
	s, err = open(crashOpts(), fsys, countingFill(&calls))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec = s.Recovery()
	if calls != 1 {
		t.Errorf("the reopen filled the store again")
	}
	if rec.WALRecords != 0 || rec.SnapshotSamples != int64(total) || rec.SnapshotMeters != int64(len(want)) {
		t.Errorf("reopen: %d WAL records, a snapshot of %d meters and %d samples; want 0, %d and %d", rec.WALRecords, rec.SnapshotMeters, rec.SnapshotSamples, len(want), total)
	}
	if rec.SeedSnapshotBytes != 0 {
		t.Errorf("a reopen reports a seed snapshot of %d bytes", rec.SeedSnapshotBytes)
	}
	if got := dumpStore(s); !sameStore(got, want) {
		t.Errorf("the reopened store holds other samples than the fill appended")
	}
	if err := tiersRebuilt(s); err != nil {
		t.Error(err)
	}
}

// TestSeededOpenLogsLaterAppends: what is appended after a seeded open
// (vapd -stream's withheld week) goes through the WAL, so it survives a
// reopen with no second snapshot.
func TestSeededOpenLogsLaterAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSeeded(Options{Dir: dir}, seedFill)
	if err != nil {
		t.Fatal(err)
	}
	want := seedWant()
	for id := range want {
		n := len(want[id])
		more := []Sample{crashSample(id, n), crashSample(id, n+1)}
		if _, err := s.AppendBatch(id, more); err != nil {
			t.Fatal(err)
		}
		want[id] = append(want[id], more...)
	}
	if err := s.PutMeter(Meter{ID: 9, Location: testPoint(0.09, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(9, crashSample(9, 0)); err != nil {
		t.Fatal(err)
	}
	want[9] = []Sample{crashSample(9, 0)}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenSeeded(Options{Dir: dir}, func(*Store) error {
		return errors.New("fill called on a store that holds meters")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A record a sample, and one a registration.
	if rec := s.Recovery(); rec.WALRecords != int64(2*len(seedCounts)+2) {
		t.Errorf("reopen replayed %d WAL records, want %d", rec.WALRecords, 2*len(seedCounts)+2)
	}
	if got := dumpStore(s); !sameStore(got, want) {
		t.Errorf("the appends after the seeded open did not survive a reopen")
	}
}

// TestSeededOpenNeverFillsAFullDirectory: a directory that holds a snapshot,
// or WAL records and no snapshot, opens as it is; an in-memory store is
// always new, so it is always filled. A failed fill fails the open.
func TestSeededOpenNeverFillsAFullDirectory(t *testing.T) {
	for _, snapshot := range []bool{true, false} {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutMeter(testMeter(7)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(7, Sample{TS: 100, Value: 1}); err != nil {
			t.Fatal(err)
		}
		if snapshot {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		calls := 0
		s, err = OpenSeeded(Options{Dir: dir}, countingFill(&calls))
		if err != nil {
			t.Fatal(err)
		}
		rec := s.Recovery()
		if calls != 0 || s.Catalog().Len() != 1 || seriesLen(s, 7) != 1 {
			t.Errorf("snapshot=%v (%d WAL records): fill ran %d times, %d meters; want 0 and the one meter", snapshot, rec.WALRecords, calls, s.Catalog().Len())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	s, err := OpenSeeded(Options{}, countingFill(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !sameStore(dumpStore(s), seedWant()) {
		t.Errorf("in memory: fill ran %d times, want 1 with its samples stored", calls)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A failed fill fails the open, and leaves a durable directory new.
	for _, opts := range []Options{{}, {Dir: t.TempDir()}} {
		if _, err := OpenSeeded(opts, func(*Store) error { return errFill }); !errors.Is(err, errFill) {
			t.Errorf("dir %q, a failed fill: OpenSeeded returned %v, want its error", opts.Dir, err)
		}
		calls := 0
		s, err := OpenSeeded(opts, countingFill(&calls))
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Errorf("dir %q: after a failed fill, the next OpenSeeded filled %d times, want 1", opts.Dir, calls)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

var errFill = errors.New("fill failed")

// seededImage is what a crash image of the seeded first start holds when
// reopened with checkImage's two recoveries: "empty" for no meter, "whole"
// for every sample the fill appended, or what is wrong with it.
func seededImage(img image) string {
	serial, serr := recoverImage(img, 1)
	parallel, perr := recoverImage(img, 4)
	switch {
	case serr != nil || perr != nil:
		return fmt.Sprintf("open: serial recovery: %v; parallel recovery: %v", serr, perr)
	case !sameStore(serial, parallel):
		return "parallel recovery differs from serial"
	case len(serial) == 0:
		return "empty"
	case sameStore(serial, seedWant()):
		return "whole"
	}
	return fmt.Sprintf("%d meters, neither none nor the whole snapshot", len(serial))
}

// TestSeededOpenCrashStates crashes the seeded first start after each of
// its calls, in every way crashImages builds. Each disk must open, never
// refused as corrupt, and hold either no meter or every sample the fill
// appended, whole from the moment OpenSeeded returned; one that holds no
// meter is filled again by the next seeded open, to the same samples.
func TestSeededOpenCrashStates(t *testing.T) {
	before := goroutines()
	fsys := newMemFS()
	s, err := open(crashOpts(), fsys, seedFill)
	if err != nil {
		t.Fatal(err)
	}
	returned := fsys.calls()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ops := fsys.trace()
	var order []uint64
	images, lastK := map[uint64]image{}, map[uint64]int{}
	for k := 0; k <= len(ops); k++ {
		crashImages(ops, k, func(img image) {
			key := img.key()
			if _, ok := images[key]; !ok {
				order = append(order, key)
				images[key] = img
			}
			lastK[key] = k // a crash after OpenSeeded returned must keep it whole
		})
	}
	empty := 0
	for _, key := range order {
		k := lastK[key]
		got := seededImage(images[key])
		if got == "empty" && k < returned {
			empty++
			if bad := refill(images[key]); bad != "" {
				t.Errorf("crash after call %d: the next seeded open: %s\ncalls:%s", k-1, bad, describe(ops, k))
			}
		} else if got != "whole" {
			t.Errorf("crash after call %d: %s\ncalls:%s", k-1, got, describe(ops, k))
		}
	}
	t.Logf("%d calls, %d distinct crash states: %d with no meter, the rest whole", len(ops), len(order), empty)
	checkNoLeakedGoroutines(t, before)
}

// refill seeds img's directory again and reports what is wrong with the
// result: the refilled store, reopened, must hold the fill's samples.
func refill(img image) string {
	fsys := memFSFrom(img)
	for _, fill := range []func(*Store) error{seedFill, nil} {
		s, err := open(crashOpts(), fsys, fill)
		if err != nil {
			return err.Error()
		}
		got := dumpStore(s)
		if err := s.Close(); err != nil {
			return err.Error()
		}
		if !sameStore(got, seedWant()) {
			return "the store holds other samples than the fill appended"
		}
	}
	return ""
}
