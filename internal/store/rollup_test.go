package store

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestNormalizeRollupRes(t *testing.T) {
	cases := []struct {
		name string
		in   []int64
		want []int64
	}{
		{"nil selects defaults", nil, DefaultRollupRes},
		{"empty disables", []int64{}, nil},
		{"sorted deduped cleaned", []int64{86400, 3600, 3600, -5, 0, 14400}, []int64{3600, 14400, 86400}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := normalizeRollupRes(tc.in)
			if len(got) != len(tc.want) {
				t.Fatalf("normalizeRollupRes(%v) = %v, want %v", tc.in, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("normalizeRollupRes(%v) = %v, want %v", tc.in, got, tc.want)
				}
			}
		})
	}
}

// foldReference folds samples into width-aligned buckets the same way the
// ingest path does — the oracle the TierScan tests compare against.
func foldReference(smps []Sample, width int64) []RollupBucket {
	var out []RollupBucket
	for _, s := range smps {
		start := s.TS - mod64(s.TS, width)
		if len(out) == 0 || out[len(out)-1].Start != start {
			out = append(out, newRollupBucket(start, s.Value))
			continue
		}
		out[len(out)-1].fold(s.Value)
	}
	return out
}

func TestTierScan(t *testing.T) {
	st, err := Open(Options{}) // default tiers: 3600, 86400
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	// Three days of 10-minute samples with a NaN and gaps.
	var all []Sample
	for i := 0; i < 3*144; i++ {
		if i%50 == 17 {
			continue // gap
		}
		v := float64(i%13) * 0.5
		if i%97 == 42 {
			v = math.NaN()
		}
		all = append(all, Sample{TS: int64(i) * 600, Value: v})
	}
	for _, s := range all {
		if err := st.Append(1, s); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("interior matches reference fold", func(t *testing.T) {
		const res, day = int64(3600), int64(86400)
		from, to := int64(0), 3*day
		tsc, err := st.TierScan(1, res, from, from, to, to)
		if err != nil {
			t.Fatal(err)
		}
		if tsc.Left != nil || tsc.Right != nil {
			t.Error("aligned window grew raw edges")
		}
		var got []RollupBucket
		tsc.Buckets(func(b *RollupBucket) { got = append(got, *b) })
		want := foldReference(all, res)
		if len(got) != len(want) {
			t.Fatalf("%d buckets, want %d", len(got), len(want))
		}
		for i := range got {
			if !rollupBucketEqual(&got[i], &want[i]) {
				t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})

	t.Run("edges cover the unaligned remainder", func(t *testing.T) {
		const res = int64(3600)
		from, to := int64(1800), int64(9000) // 0:30 .. 2:30
		aFrom, aTo := int64(3600), int64(7200)
		tsc, err := st.TierScan(1, res, from, aFrom, aTo, to)
		if err != nil {
			t.Fatal(err)
		}
		count := func(it *SeriesIter) int {
			smps, err := drainBatches(t, it)
			if err != nil {
				t.Fatal(err)
			}
			return len(smps)
		}
		interior := 0
		tsc.Buckets(func(b *RollupBucket) { interior += int(b.Count + b.NaN) })
		total := count(tsc.Left) + interior + count(tsc.Right)
		smps, err := st.Range(1, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if total != len(smps) {
			t.Errorf("edges+interior cover %d samples, raw window holds %d", total, len(smps))
		}
	})

	t.Run("version matches meter version", func(t *testing.T) {
		tsc, err := st.TierScan(1, 86400, 0, 0, 86400, 86400)
		if err != nil {
			t.Fatal(err)
		}
		if ver := meterVersion(st, 1); tsc.Version != ver {
			t.Errorf("TierScan version %d, meter version %d", tsc.Version, ver)
		}
	})

	t.Run("unmaintained resolution errors", func(t *testing.T) {
		if _, err := st.TierScan(1, 1234, 0, 0, 86400, 86400); !errors.Is(err, ErrNoRollupTier) {
			t.Errorf("TierScan(res=1234) err = %v, want ErrNoRollupTier", err)
		}
	})

	t.Run("unknown meter errors", func(t *testing.T) {
		if _, err := st.TierScan(99, 3600, 0, 0, 86400, 86400); err == nil {
			t.Error("TierScan on unknown meter succeeded")
		}
	})
}

// TestTierScanSeesLiveTail: the last (still-mutating) bucket is captured by
// value, so a TierScan taken before later appends keeps its point-in-time
// state.
func TestTierScanSeesLiveTail(t *testing.T) {
	st, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(1, Sample{TS: int64(i) * 60, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	tsc, err := st.TierScan(1, 3600, 0, 0, 3600, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, Sample{TS: 700, Value: 5}); err != nil {
		t.Fatal(err)
	}
	var got []RollupBucket
	tsc.Buckets(func(b *RollupBucket) { got = append(got, *b) })
	if len(got) != 1 || got[0].Count != 10 || got[0].Sum != 10 {
		t.Errorf("snapshot bucket = %+v, want the 10-sample state from capture time", got)
	}
}

// TestSnapshotV2RoundTrip: a durable cycle persists the tiers and the
// reopen installs them bit-identically (checkRollupsRebuilt also proves
// install — not refold — happened via the sample data itself).
func TestSnapshotV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for m := int64(1); m <= 2; m++ {
		if err := st.PutMeter(Meter{ID: m, Location: testPoint(float64(m)*0.01, 0), Zone: ZoneCommercial}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*1440; i++ { // two days, one-minute cadence
			v := float64(i % 11)
			if i%67 == 5 {
				v = math.Inf(-1)
			}
			if err := st.Append(m, Sample{TS: int64(i)*60 + m, Value: v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().Samples; got != 2*2*1440 {
		t.Fatalf("reopened samples = %d, want %d", got, 2*2*1440)
	}
	checkRollupsRebuilt(t, st2)
	stats := st2.Stats()
	if len(stats.Rollups) != len(DefaultRollupRes) {
		t.Fatalf("Stats.Rollups has %d tiers, want %d", len(stats.Rollups), len(DefaultRollupRes))
	}
	for i, rs := range stats.Rollups {
		if rs.Res != DefaultRollupRes[i] || rs.Buckets == 0 || rs.Bytes != int64(rs.Buckets)*rollupBucketBytes {
			t.Errorf("Rollups[%d] = %+v, want res %d with buckets*%d bytes", i, rs, DefaultRollupRes[i], rollupBucketBytes)
		}
	}
}

// TestSnapshotV1Migration: a legacy VAPS snapshot (raw samples, no tiers)
// loads cleanly and the tiers are rebuilt from the raw data it contains.
// testdata/legacy/v1.vap holds meter 7 with 3000 samples at a 120 s
// cadence, written by the last build that had a v1 writer.
func TestSnapshotV1Migration(t *testing.T) {
	dir := legacySnapshotDir(t, "v1.vap")
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open legacy snapshot: %v", err)
	}
	defer st.Close()
	if got := st.Stats().Samples; got != 3000 {
		t.Fatalf("migrated samples = %d, want 3000", got)
	}
	checkRollupsRebuilt(t, st)
	if got := st.RollupResolutions(); len(got) != len(DefaultRollupRes) {
		t.Errorf("resolutions after migration = %v, want defaults", got)
	}
}

// TestRetentionAgesRawKeepsTiers: with RetainRaw set, a snapshot drops
// sealed chunks wholly behind the horizon from disk and memory, while the
// rollup tiers keep answering over the full history.
func TestRetentionAgesRawKeepsTiers(t *testing.T) {
	const day = int64(86400)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, RetainRaw: 2 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	// Six days of one-minute samples: 8640 samples = 12 sealed chunks of
	// 12 hours each, so the two-day horizon leaves whole chunks behind it.
	var all []Sample
	for i := 0; i < 6*1440; i++ {
		all = append(all, Sample{TS: int64(i) * 60, Value: float64(i%23) * 0.25})
	}
	for _, s := range all {
		if err := st.Append(1, s); err != nil {
			t.Fatal(err)
		}
	}
	wantDaily := foldReference(all, day)

	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, last, _ := st.TimeBounds()
	cutoff := last + 1 - 2*day

	check := func(st *Store, phase string) {
		t.Helper()
		first, _, err := st.Bounds(1)
		if err != nil {
			t.Fatal(err)
		}
		// Pruning is chunk-granular, so it may not reach the cutoff — but it
		// must never drop a sample the horizon still covers.
		keepFrom := int64(math.MaxInt64)
		for _, s := range all {
			if s.TS >= cutoff {
				keepFrom = s.TS
				break
			}
		}
		if first > keepFrom {
			t.Errorf("%s: first retained raw sample %d, but the horizon covers %d — pruning overshot", phase, first, keepFrom)
		}
		if n := seriesLen(st, 1); n >= len(all) {
			t.Errorf("%s: %d raw samples survive, want fewer than %d (aged out)", phase, n, len(all))
		}
		// Chunk-granular: everything from the first surviving chunk on is
		// still there.
		smps, err := st.Range(1, minInt64, maxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(smps))*60+first != last+60 {
			t.Errorf("%s: retained raw run is not contiguous to the tail", phase)
		}
		// The daily tier still covers the full history, pruned region
		// included, bit-identical to a fold of the original data.
		tsc, err := st.TierScan(1, day, 0, 0, 6*day, 6*day)
		if err != nil {
			t.Fatal(err)
		}
		var got []RollupBucket
		tsc.Buckets(func(b *RollupBucket) { got = append(got, *b) })
		if len(got) != len(wantDaily) {
			t.Fatalf("%s: %d daily buckets, want %d", phase, len(got), len(wantDaily))
		}
		for i := range got {
			if !rollupBucketEqual(&got[i], &wantDaily[i]) {
				t.Fatalf("%s: daily bucket %d = %+v, want %+v", phase, i, got[i], wantDaily[i])
			}
		}
	}
	check(st, "after snapshot")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir, RetainRaw: 2 * 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	check(st2, "after reopen")
}
