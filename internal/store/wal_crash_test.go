package store

// Crash-recovery matrix for the segmented WAL. The historical bug these
// tests pin down: a torn tail write used to be silently seeked past on
// open (new appends landed *behind* the garbage) and replay stopped at the
// first bad CRC (dropping every later record). The matrix simulates a
// crash at every byte of the final frame, between segment rotation and the
// first record, at each snapshot crash point, and — in TestWALKillRecovery
// — with a real SIGKILL mid-ingest, then proves recovery keeps every
// acknowledged sample and that post-crash appends are never lost.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vap/internal/geo"
)

const sampleFrameLen = walFrameOverhead + 24 // one recSample frame on disk

// testPoint offsets a valid reference location (central Copenhagen, like
// the rest of the test data) so every meter gets a distinct position.
func testPoint(dLon, dLat float64) geo.Point {
	return geo.Point{Lon: 12.5 + dLon, Lat: 55.6 + dLat}
}

// buildTemplate creates a durable store in a fresh dir with meter 1 and
// samples TS=1..n (each synced), closes it, and returns the dir.
func buildTemplate(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	mustSync(t, st)
	for i := 1; i <= n; i++ {
		appendSynced(t, st, Sample{TS: int64(i), Value: float64(i)})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// mustSync commits everything appended to st so far.
func mustSync(t *testing.T, st *Store) {
	t.Helper()
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
}

// appendSynced appends smp to meter 1 and syncs: one group commit per
// sample.
func appendSynced(t *testing.T, st *Store, smp Sample) {
	t.Helper()
	if err := st.Append(1, smp); err != nil {
		t.Fatal(err)
	}
	mustSync(t, st)
}

// cloneDir copies every regular file of src into a fresh temp dir, so each
// matrix entry mutates a pristine copy of the crashed state.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sampleTSSet returns the set of timestamps stored for meter id.
func sampleTSSet(t *testing.T, st *Store, id int64) map[int64]bool {
	t.Helper()
	smps, err := st.Range(id, minInt64, maxInt64)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[int64]bool, len(smps))
	for _, s := range smps {
		set[s.TS] = true
	}
	return set
}

// rollupBucketEqual compares two buckets bitwise — NaN payloads included —
// so a tier that diverges by even one float bit is caught.
func rollupBucketEqual(a, b *RollupBucket) bool {
	return a.Start == b.Start && a.Count == b.Count && a.NaN == b.NaN &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// tierCaptures returns a capture of each of the series' whole tiers, in
// the store's tier order. The caller holds the series' shard lock.
func tierCaptures(ser *Series) []tierView {
	out := make([]tierView, len(ser.rollups))
	for i := range ser.rollups {
		t := &ser.rollups[i]
		t.capture(&out[i], 0, 0, len(t.pages), 0)
	}
	return out
}

// flatBuckets returns a tier capture's buckets as one ascending sequence,
// the copied tail included.
func flatBuckets(v *tierView) []RollupBucket {
	var out []RollupBucket
	v.each(func(b *RollupBucket) { out = append(out, *b) })
	return out
}

// checkRollupsRebuilt asserts every meter's in-memory rollup tiers equal a
// from-scratch fold of the recovered raw samples — the invariant that
// recovery (tiers derived from a snapshot's samples, WAL replay folding, or
// both) never diverges from what straight ingest would have built.
func checkRollupsRebuilt(t *testing.T, st *Store) {
	t.Helper()
	if err := tiersRebuilt(st); err != nil {
		t.Error(err)
	}
}

// tiersRebuilt is checkRollupsRebuilt's check: it names the first meter
// whose tier differs bit for bit from the general-only reference fold
// (generalFold) of the meter's raw samples.
func tiersRebuilt(st *Store) error {
	for _, id := range st.Catalog().IDs() {
		smps, err := st.Range(id, minInt64, maxInt64)
		if err != nil {
			return err
		}
		sh := st.shardFor(id)
		sh.mu.RLock()
		got := tierCaptures(sh.series[id])
		sh.mu.RUnlock()
		if len(got) != len(st.rollupRes) {
			return fmt.Errorf("meter %d: recovered %d tiers, want %d", id, len(got), len(st.rollupRes))
		}
		for i := range got {
			if err := sameBuckets(flatBuckets(&got[i]), generalFold(smps, st.rollupRes[i])); err != nil {
				return fmt.Errorf("meter %d %ds tier diverges from a from-scratch rebuild: %w", id, st.rollupRes[i], err)
			}
		}
	}
	return nil
}

// checkRecovery opens dir and asserts exactly wantTS survived for meter 1,
// then appends TS=100, reopens, and asserts the new sample is recoverable
// too — the headline guarantee that post-crash appends never land behind
// torn garbage.
func checkRecovery(t *testing.T, dir string, wantTS []int64) {
	t.Helper()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	got := sampleTSSet(t, st, 1)
	if len(got) != len(wantTS) {
		t.Errorf("recovered %d samples, want %d (%v)", len(got), len(wantTS), got)
	}
	for _, ts := range wantTS {
		if !got[ts] {
			t.Errorf("sample TS=%d lost in recovery", ts)
		}
	}
	checkRollupsRebuilt(t, st)
	if err := st.Append(1, Sample{TS: 100, Value: 100}); err != nil {
		t.Fatalf("post-crash append: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("second recovery open: %v", err)
	}
	defer st2.Close()
	got2 := sampleTSSet(t, st2, 1)
	if !got2[100] {
		t.Error("post-crash append TS=100 was not recovered: it landed behind torn garbage")
	}
	if len(got2) != len(wantTS)+1 {
		t.Errorf("after post-crash append: %d samples, want %d", len(got2), len(wantTS)+1)
	}
}

// TestWALCrashMatrixTornTail simulates a crash at every byte boundary of
// the final frame — mid header, mid payload, mid CRC — in three flavors:
// the tail truncated there, the rest overwritten with garbage, and the
// rest zero-filled (what ext4 leaves after a size-extending crash).
func TestWALCrashMatrixTornTail(t *testing.T) {
	const n = 5
	tpl := buildTemplate(t, n)
	tail := tailSegmentPath(t, tpl)
	info, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := info.Size() - sampleFrameLen // TS=5's frame starts here
	want := []int64{1, 2, 3, 4}               // TS=5 is torn in every entry

	for cut := int64(0); cut < sampleFrameLen; cut++ {
		for _, mode := range []string{"truncate", "garbage", "zeros"} {
			t.Run(fmt.Sprintf("%s/cut=%d", mode, cut), func(t *testing.T) {
				dir := cloneDir(t, tpl)
				path := tailSegmentPath(t, dir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				torn := append([]byte(nil), data[:lastFrame+cut]...)
				switch mode {
				case "garbage":
					pad := make([]byte, int64(len(data))-lastFrame-cut)
					for i := range pad {
						pad[i] = 0xAA
					}
					torn = append(torn, pad...)
				case "zeros":
					torn = append(torn, make([]byte, int64(len(data))-lastFrame-cut)...)
				}
				if err := os.WriteFile(path, torn, 0o644); err != nil {
					t.Fatal(err)
				}
				// A fill byte can coincide with the original (e.g. a CRC
				// whose top byte is zero): the record is then genuinely
				// intact and recovery must keep it.
				if bytes.Equal(torn, data) {
					checkRecovery(t, dir, []int64{1, 2, 3, 4, 5})
					return
				}
				checkRecovery(t, dir, want)
			})
		}
	}
}

// TestWALCrashBetweenRotateAndFirstRecord simulates a kill after the next
// segment file was created but before (or part way through) its header
// write: the empty/partial tail is reinitialized and nothing in the sealed
// predecessor is lost.
func TestWALCrashBetweenRotateAndFirstRecord(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"partialMagic": walMagic[:2],
		"headerOnly":   walMagic[:],
	}
	for name, contents := range cases {
		t.Run(name, func(t *testing.T) {
			dir := cloneDir(t, buildTemplate(t, 5))
			if err := os.WriteFile(filepath.Join(dir, segmentName(2)), contents, 0o644); err != nil {
				t.Fatal(err)
			}
			checkRecovery(t, dir, []int64{1, 2, 3, 4, 5})
		})
	}
}

// frameOffsets walks a segment and returns the start offset of every
// frame of the given type.
func frameOffsets(t *testing.T, data []byte, typ byte) []int64 {
	t.Helper()
	var offs []int64
	off := walHeaderLen
	for off < len(data) {
		ft, _, end, reason := parseFrame(data, off)
		if reason != "" {
			t.Fatalf("frame walk hit malformed frame at %d: %s", off, reason)
		}
		if ft == typ {
			offs = append(offs, int64(off))
		}
		off = end
	}
	return offs
}

// TestWALInteriorCorruptionDetected flips a byte in a record that later
// commit markers prove was fsync-acknowledged. That is not a torn tail —
// acknowledged appends were damaged — so open must fail loudly with the
// corruption offset instead of silently dropping the rest (the seed's
// ReplayWAL returned nil here).
func TestWALInteriorCorruptionDetected(t *testing.T) {
	dir := cloneDir(t, buildTemplate(t, 5))
	path := tailSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the second sample record's payload; the markers of the
	// later batches attest it was acknowledged.
	samples := frameOffsets(t, data, recSample)
	if len(samples) != 5 {
		t.Fatalf("template has %d sample frames, want 5", len(samples))
	}
	target := samples[1]
	data[target+10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir})
	if err == nil {
		t.Fatal("interior corruption silently accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("error does not wrap ErrCorrupt: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CorruptError: %v", err)
	}
	if ce.Offset != target {
		t.Errorf("corruption offset = %d, want %d", ce.Offset, target)
	}
	if ce.Segment != path {
		t.Errorf("corruption segment = %q, want %q", ce.Segment, path)
	}
}

// TestWALTornMultiFrameBatch: a single group commit writes several frames
// in one Write, and the disk may persist those pages out of order — an
// earlier frame torn, a later frame of the same batch intact. Nothing in
// that batch was acknowledged (its fsync never returned), so recovery
// must classify it as a torn tail and truncate, not refuse to open. The
// old any-valid-frame-after heuristic got exactly this wrong.
func TestWALTornMultiFrameBatch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	mustSync(t, st)
	appendSynced(t, st, Sample{TS: 1, Value: 1})
	// One batch, three frames (TS 2, 3, 4), one marker ahead of it.
	if _, err := st.AppendBatch(1, []Sample{{TS: 2, Value: 2}, {TS: 3, Value: 3}, {TS: 4, Value: 4}}); err != nil {
		t.Fatal(err)
	}
	mustSync(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := tailSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samples := frameOffsets(t, data, recSample)
	if len(samples) != 4 {
		t.Fatalf("template has %d sample frames, want 4", len(samples))
	}
	// Zero TS=2's frame: torn, while TS=3 and TS=4 of the same
	// unacknowledged batch survive intact after it.
	for i := samples[1]; i < samples[1]+sampleFrameLen; i++ {
		data[i] = 0
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Only TS=1 is recoverable; TS 2-4 were never acknowledged, and the
	// open must repair, not error.
	checkRecovery(t, dir, []int64{1})
}

// TestWALSealedSegmentCorruptionDetected corrupts a rotated-out segment.
// Sealed segments were fully synced before rotation, so any malformation
// there is interior corruption by construction — even at the very end.
func TestWALSealedSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	mustSync(t, st)
	for i := 1; i <= 40; i++ {
		appendSynced(t, st, Sample{TS: int64(i), Value: float64(i)})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	idxs, err := listSegments(dir)
	if err != nil || len(idxs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err=%v)", idxs, err)
	}
	first := filepath.Join(dir, segmentName(idxs[0]))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:len(data)-3] // "torn" end of a sealed segment
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("sealed-segment damage not reported as corruption: %v", err)
	}
}

// TestWALReplayNewShardCount reopens a durable store under different shard
// counts: the WAL and snapshot formats are shard-agnostic.
func TestWALReplayNewShardCount(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	const meters, perMeter = 16, 20
	for m := int64(1); m <= meters; m++ {
		if err := st.PutMeter(Meter{ID: m, Location: testPoint(float64(m)*0.01, 0), Zone: ZoneResidential}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= perMeter; i++ {
			if err := st.Append(m, Sample{TS: int64(i), Value: float64(m * int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 32} {
		st2, err := Open(Options{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatalf("reopen shards=%d: %v", shards, err)
		}
		stats := st2.Stats()
		if stats.Meters != meters || stats.Samples != meters*perMeter {
			t.Errorf("shards=%d: %d meters / %d samples, want %d / %d",
				shards, stats.Meters, stats.Samples, meters, meters*perMeter)
		}
		for m := int64(1); m <= meters; m++ {
			if set := sampleTSSet(t, st2, m); len(set) != perMeter {
				t.Errorf("shards=%d meter %d: %d samples, want %d", shards, m, len(set), perMeter)
			}
		}
		checkRollupsRebuilt(t, st2)
		st2.Close()
	}
}

// TestWALRotationLifecycle drives rotation with a tiny segment threshold,
// then checks replay spans segments and a snapshot retires everything
// below its watermark.
func TestWALRotationLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneCommercial}); err != nil {
		t.Fatal(err)
	}
	mustSync(t, st)
	const n = 64
	for i := 1; i <= n; i++ {
		appendSynced(t, st, Sample{TS: int64(i), Value: float64(i)})
	}
	if segs, _ := st.WALStats(); segs < 3 {
		t.Fatalf("rotation did not happen: %d segments", segs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if set := sampleTSSet(t, st, 1); len(set) != n {
		t.Fatalf("multi-segment replay recovered %d samples, want %d", len(set), n)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := st.WALStats(); segs != 1 {
		t.Errorf("segments after snapshot = %d, want 1 (covered segments deleted)", segs)
	}
	for i := n + 1; i <= n+10; i++ {
		appendSynced(t, st, Sample{TS: int64(i), Value: float64(i)})
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if set := sampleTSSet(t, st, 1); len(set) != n+10 {
		t.Errorf("snapshot+suffix recovery: %d samples, want %d", len(set), n+10)
	}
	checkRollupsRebuilt(t, st)
}

// TestRecoveryRebuildsRollups spans real tier widths (the matrix above uses
// second-scale timestamps that stay inside one bucket): days of 15-minute
// samples with NaN/±Inf readings, recovered via snapshot + WAL suffix, must
// carry tiers bit-identical to a from-scratch rebuild — including when the
// reopen asks for a tier the snapshot never persisted (derived from raw on
// load) or for no tiers at all.
func TestRecoveryRebuildsRollups(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const day = int64(86400)
	for m := int64(1); m <= 3; m++ {
		if err := st.PutMeter(Meter{ID: m, Location: testPoint(float64(m)*0.01, 0), Zone: ZoneResidential}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*96; i++ { // four days at 15-minute cadence
			v := float64(i%7) * 1.5
			switch i % 53 {
			case 11:
				v = math.NaN()
			case 29:
				v = math.Inf(1)
			}
			if err := st.Append(m, Sample{TS: int64(i)*900 + m, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A WAL suffix past the snapshot: replay must fold these into the
	// snapshot-loaded tiers.
	for m := int64(1); m <= 3; m++ {
		for i := 4 * 96; i < 5*96; i++ {
			if err := st.Append(m, Sample{TS: int64(i)*900 + m, Value: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		res  []int64
	}{
		{"snapshotTiers", nil},                       // default hourly+daily, as persisted
		{"derivedTier", []int64{3600, 14400, 86400}}, // 4-hourly derived from raw on load
		{"singleTier", []int64{day}},                 // subset of what the snapshot holds
		{"disabled", []int64{}},                      // no tiers at all
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(Options{Dir: dir, RollupRes: tc.res})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if set := sampleTSSet(t, st, 1); len(set) != 5*96 {
				t.Fatalf("recovered %d samples, want %d", len(set), 5*96)
			}
			checkRollupsRebuilt(t, st)
		})
	}
}

// TestSnapshotCrashPoints covers the two snapshot crash windows: before
// the rename (a stray tmp file covers nothing and is dropped) and after
// the rename but before covered segments are deleted (replay overlaps the
// snapshot and must dedupe, not double-apply or fail).
func TestSnapshotCrashPoints(t *testing.T) {
	t.Run("beforeRename", func(t *testing.T) {
		dir := cloneDir(t, buildTemplate(t, 5))
		if err := os.WriteFile(filepath.Join(dir, "snapshot.vap.tmp"), []byte("partial snapshot junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovery(t, dir, []int64{1, 2, 3, 4, 5})
		if _, err := os.Stat(filepath.Join(dir, "snapshot.vap.tmp")); !os.IsNotExist(err) {
			t.Error("stray snapshot temp file survived recovery")
		}
	})
	t.Run("beforeSegmentDelete", func(t *testing.T) {
		tpl := buildTemplate(t, 5)
		// Back up the pre-snapshot WAL segments.
		backup := cloneDir(t, tpl)
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
		// Restore the covered segments next to the durable snapshot: the
		// exact on-disk state of a crash between rename+dirsync and
		// DeleteSegmentsBelow.
		idxs, err := listSegments(backup)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range idxs {
			data, err := os.ReadFile(filepath.Join(backup, segmentName(idx)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(tpl, segmentName(idx)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		checkRecovery(t, tpl, []int64{1, 2, 3, 4, 5})
	})
}

// TestLegacyWALMigration opens a dir laid out in the seed's single-file
// format: testdata/legacy/wal.log, meter 1 with samples at TS 1..5, is a
// golden file written once, so a drift in the segment format fails here.
// wal.log becomes wal-000001.log and every record survives. Both layouts
// present at once is ambiguous and must refuse to open.
func TestLegacyWALMigration(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy", legacyWALName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacyWALName), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecovery(t, dir, []int64{1, 2, 3, 4, 5})
	if _, err := os.Stat(filepath.Join(dir, legacyWALName)); !os.IsNotExist(err) {
		t.Error("legacy wal.log not migrated away")
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil {
		t.Errorf("migrated first segment missing: %v", err)
	}

	// Ambiguous: both layouts at once.
	dir2 := buildTemplate(t, 2)
	if err := os.WriteFile(filepath.Join(dir2, legacyWALName), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir2}); err == nil {
		t.Error("open accepted both wal.log and wal segments in one dir")
	}
}

// TestStoreSyncFlushesBufferedAppends: appends become durable after an
// explicit Sync, with no background flush in between.
func TestStoreSyncFlushesBufferedAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, CommitInterval: time.Hour}) // never auto-flush
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := st.Append(1, Sample{TS: int64(i), Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	meters, samples := replayDirCounts(t, dir)
	if meters != 1 || samples != 10 {
		t.Errorf("on disk after Sync: %d meters / %d samples, want 1 / 10", meters, samples)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after Close = %v, want ErrClosed", err)
	}
}

// TestSnapshotDoesNotBlockAppends proves — under the race detector — that
// a snapshot in flight no longer serializes writers: appends and iterator
// scans must *complete* strictly inside the snapshot's start/end window
// (under the old lockAll snapshot, no append could finish until the full
// disk write was done).
func TestSnapshotDoesNotBlockAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const meters, preload = 100, 2000
	base := make([]Sample, preload)
	for m := int64(1); m <= meters; m++ {
		if err := st.PutMeter(Meter{ID: m, Location: testPoint(float64(m)*0.001, 0), Zone: ZoneResidential}); err != nil {
			t.Fatal(err)
		}
		for i := range base {
			base[i] = Sample{TS: int64(i + 1), Value: float64(m)}
		}
		if _, err := st.AppendBatch(m, base); err != nil {
			t.Fatal(err)
		}
	}

	var (
		snapStart, snapEnd atomic.Int64
		during             atomic.Int64
		stop               = make(chan struct{})
		wg                 sync.WaitGroup
	)
	writer := func(m int64) {
		defer wg.Done()
		ts := int64(preload + 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Append(m, Sample{TS: ts, Value: 1}); err != nil {
				t.Errorf("append during snapshot: %v", err)
				return
			}
			now := time.Now().UnixNano()
			if s, e := snapStart.Load(), snapEnd.Load(); s != 0 && now > s && (e == 0 || now < e) {
				during.Add(1)
			}
			ts++
		}
	}
	reader := func(m int64) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			it, err := st.Iter(m, minInt64, maxInt64)
			if err != nil {
				t.Errorf("iter during snapshot: %v", err)
				return
			}
			for b := NewBatch(); it.NextBatch(b); {
			}
			if err := it.Err(); err != nil {
				t.Errorf("iter decode during snapshot: %v", err)
				return
			}
		}
	}
	for m := int64(1); m <= 8; m++ {
		wg.Add(2)
		go writer(m)
		go reader(m + 8)
	}
	time.Sleep(5 * time.Millisecond) // let the workers spin up
	snapStart.Store(time.Now().UnixNano())
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snapEnd.Store(time.Now().UnixNano())
	close(stop)
	wg.Wait()

	if during.Load() == 0 {
		t.Error("no append completed while the snapshot was writing: snapshot still blocks writers")
	}
	if st.LastSnapshotUnix() == 0 {
		t.Error("snapshot completion time not recorded")
	}
}

// --- real-kill matrix ----------------------------------------------------

// TestWALKillRecovery SIGKILLs a child process that syncs after every
// append (tiny segments force rotations; periodic snapshots open that
// crash window too), then reopens the dir and verifies every sample whose
// append the child acknowledged is present. Acks flow over a pipe *after*
// Sync returns, so any ack the parent observed is a durability promise the
// recovery must honor.
func TestWALKillRecovery(t *testing.T) {
	if os.Getenv("VAP_WAL_CRASH_CHILD") != "" {
		t.Skip("child-mode helper")
	}
	if testing.Short() {
		t.Skip("subprocess kill matrix skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for round, delay := range []time.Duration{80 * time.Millisecond, 160 * time.Millisecond, 300 * time.Millisecond} {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(exe, "-test.run", "TestWALCrashChild", "-test.v")
			cmd.Env = append(os.Environ(), "VAP_WAL_CRASH_CHILD=1", "VAP_WAL_CRASH_DIR="+dir)
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var lastAck int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				r := bufio.NewReader(out)
				for {
					line, err := r.ReadString('\n')
					// Only full lines count; a torn final line is still a
					// safe claim because acks increase monotonically, but we
					// keep the parse strict and simply drop it.
					if strings.HasPrefix(line, "ACK ") && strings.HasSuffix(line, "\n") {
						if n, perr := strconv.ParseInt(strings.TrimSpace(line[4:]), 10, 64); perr == nil {
							lastAck = n
						}
					}
					if err != nil {
						return
					}
				}
			}()
			time.Sleep(delay)
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			_ = cmd.Wait()
			<-done
			if lastAck == 0 {
				t.Skip("child made no progress before the kill; nothing to verify")
			}

			// Recover the same crashed state serially and with the worker
			// pool (the child's periodic snapshots are v3, so the parallel
			// leg drives the sectioned loader and sharded WAL replay over
			// real crash debris), each under a different shard count for
			// good measure.
			for _, workers := range []int{1, 8} {
				st, err := Open(Options{Dir: cloneDir(t, dir), Shards: 2, RecoverWorkers: workers})
				if err != nil {
					t.Fatalf("recovery after kill (workers=%d, lastAck=%d): %v", workers, lastAck, err)
				}
				defer st.Close()
				recovered := make(map[int64]map[int64]bool, 4)
				for m := int64(1); m <= 4; m++ {
					recovered[m] = sampleTSSet(t, st, m)
				}
				for i := int64(1); i <= lastAck; i++ {
					if m := i%4 + 1; !recovered[m][i] {
						t.Fatalf("acked sample %d (meter %d) lost after kill; workers=%d lastAck=%d", i, m, workers, lastAck)
					}
				}
				checkRollupsRebuilt(t, st)
				// And the store must still accept + recover new writes.
				if err := st.Append(lastAck%4+1, Sample{TS: lastAck + 1_000_000, Value: 1}); err != nil {
					t.Errorf("post-kill append (workers=%d): %v", workers, err)
				}
			}
		})
	}
}

// TestWALCrashChild is the kill-matrix child body: it runs only when
// re-executed by TestWALKillRecovery with the env marker set, appending
// synced samples round-robin over four meters and printing "ACK i" after
// each append returns, until it is killed.
func TestWALCrashChild(t *testing.T) {
	dir := os.Getenv("VAP_WAL_CRASH_DIR")
	if os.Getenv("VAP_WAL_CRASH_CHILD") == "" || dir == "" {
		t.Skip("not in child mode")
	}
	st, err := Open(Options{
		Dir:            dir,
		SegmentBytes:   2048, // rotate constantly so the kill can land mid-rotation
		CommitInterval: 500 * time.Microsecond,
		Shards:         4,
	})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	for m := int64(1); m <= 4; m++ {
		if err := st.PutMeter(Meter{ID: m, Location: testPoint(float64(m)*0.01, 0), Zone: ZoneResidential}); err != nil {
			t.Fatalf("child put meter: %v", err)
		}
		if err := st.Sync(); err != nil {
			t.Fatalf("child sync: %v", err)
		}
	}
	for i := int64(1); ; i++ {
		if err := st.Append(i%4+1, Sample{TS: i, Value: float64(i)}); err != nil {
			t.Fatalf("child append %d: %v", i, err)
		}
		if err := st.Sync(); err != nil {
			t.Fatalf("child sync %d: %v", i, err)
		}
		fmt.Printf("ACK %d\n", i)
		if i%400 == 0 {
			// Open the kill-during-snapshot window too.
			if err := st.Snapshot(); err != nil {
				t.Fatalf("child snapshot: %v", err)
			}
		}
	}
}
