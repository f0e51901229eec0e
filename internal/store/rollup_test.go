package store

import (
	"errors"
	"math"
	"sync"
	"testing"
	"unsafe"
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

// foldReference folds samples into width-aligned buckets sample by sample,
// written out here rather than through Fold so the TierScan tests do not
// check the ingest path against its own code: ±Inf seeds, NaN tallied and
// never folded, strict compares for the bounds (math.Min / math.Max order
// -0 and +0, which the kernel does not).
func foldReference(smps []Sample, width int64) []RollupBucket {
	var out []RollupBucket
	for _, s := range smps {
		start := s.TS - mod64(s.TS, width)
		if len(out) == 0 || out[len(out)-1].Start != start {
			b := RollupBucket{Start: start}
			b.Min, b.Max = math.Inf(1), math.Inf(-1)
			out = append(out, b)
		}
		b := &out[len(out)-1]
		if v := s.Value; v != v {
			b.NaN++
		} else {
			b.Sum += v
			b.Count++
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
		}
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

	// Every append pattern, checked after each step and again after
	// Snapshot -> Open -> WAL replay: every window's buckets equal the flat
	// fold of the raw samples, across tier page boundaries, and the live
	// last bucket is copied out exactly when the window holds it.
	t.Run("append patterns match reference fold across pages", func(t *testing.T) {
		const hour, day = int64(3600), int64(86400)
		regular := func(n int, first, step int64) []Sample {
			out := make([]Sample, n)
			for i := range out {
				out[i] = Sample{TS: first + int64(i)*step, Value: float64(i%17) * 0.5}
			}
			return out
		}
		year := regular(8760, 1483228800, hour)
		var gaps []Sample
		for i, ts := 0, int64(0); i < 3000; i++ {
			gaps = append(gaps, Sample{TS: ts, Value: float64(i % 7)})
			ts += []int64{hour, 7 * hour, 3 * day, hour / 2, 2*hour + 1}[i%5]
		}
		extremes := append(regular(300, math.MinInt64+day+5, 1234), regular(300, math.MaxInt64-300*1234-5, 1234)...)
		for _, row := range []struct {
			name  string
			smps  []Sample
			batch int // 1: per-sample Append
		}{
			{"ten-minute, gaps and NaN, per sample", all, 1},
			{"hourly, per sample", regular(1000, 0, hour), 1},
			{"year hourly, batch 255", year, 255},
			{"year hourly, batch 256", year, 256},
			{"year hourly, batch 257", year, 257},
			{"year hourly, batch 720", year, 720},
			{"year hourly, batch 8760", year, 8760},
			{"multi-bucket gaps, batch 97", gaps, 97},
			{"pre-epoch, batch 300", regular(2000, -400*day+17, 1234), 300},
			{"min to max int64 jump, per sample", extremes, 1},
			{"min to max int64 jump, one batch", extremes, len(extremes)},
		} {
			t.Run(row.name, func(t *testing.T) {
				dir := t.TempDir()
				st, err := Open(Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				reopen := func() {
					t.Helper()
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = Open(Options{Dir: dir}); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.PutMeter(Meter{ID: 1, Location: testPoint(0, 0), Zone: ZoneResidential}); err != nil {
					t.Fatal(err)
				}
				steps := (len(row.smps) + row.batch - 1) / row.batch
				end := 0
				for step := 0; step < steps; step++ {
					switch step {
					case steps / 3:
						if err := st.Snapshot(); err != nil {
							t.Fatal(err)
						}
					case 2 * steps / 3:
						reopen() // the middle third comes back through WAL replay
						checkTierWindows(t, st, row.smps[:end])
					}
					next := min(end+row.batch, len(row.smps))
					if row.batch == 1 {
						err = st.Append(1, row.smps[end])
					} else {
						_, err = st.AppendBatch(1, row.smps[end:next])
					}
					if err != nil {
						t.Fatal(err)
					}
					end = next
					checkTierWindows(t, st, row.smps[:end])
				}
				if err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
				reopen()
				checkTierWindows(t, st, row.smps)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			})
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

// checkTierWindows checks meter 1's tiers against the flat fold of smps,
// its raw history: every window whose bounds sit on, next to or between
// the buckets at tier page boundaries and at both ends yields exactly the
// reference buckets, and copies the live last bucket exactly when the
// window holds it — no captured page sub-slice aliases it.
func checkTierWindows(t *testing.T, st *Store, smps []Sample) {
	t.Helper()
	for _, res := range st.RollupResolutions() {
		ref := foldReference(smps, res)
		n := len(ref)
		start := func(i int) int64 {
			if i >= n {
				return maxInt64
			}
			return ref[i].Start
		}
		type window struct{ from, to int64 }
		wins := []window{{minInt64, maxInt64}}
		for _, a := range []int{0, 1, tierPageBuckets - 1, tierPageBuckets, tierPageBuckets + 1, 2 * tierPageBuckets, n / 2, n - 2, n - 1, n} {
			if a < 0 || a > n {
				continue
			}
			wins = append(wins, window{start(a), maxInt64}, window{minInt64, start(a)}, window{start(a), start(a + 1)})
			if a < n {
				wins = append(wins, window{start(a) + 1, start(a + 300)})
			}
		}
		sh := st.shardFor(1)
		sh.mu.RLock()
		pages := sh.series[1].rollupFor(res).pages
		live := lastSlot(&pages[len(pages)-1])
		sh.mu.RUnlock()
		for _, w := range wins {
			tsc, err := st.TierScan(1, res, w.from, w.from, w.to, w.to)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := searchBuckets(ref, w.from), searchBuckets(ref, w.to)
			i, bad := lo, false
			tsc.Buckets(func(b *RollupBucket) {
				bad = bad || i >= hi || !rollupBucketEqual(b, &ref[i])
				i++
			})
			if bad || i != hi {
				t.Fatalf("%d samples, %ds tier, window [%d, %d): buckets differ from the flat fold's %d..%d", len(smps), res, w.from, w.to, lo, hi)
			}
			if want := hi == n && hi > lo; tsc.buckets.hasTail != want {
				t.Fatalf("%ds tier, window [%d, %d): tail copied %t, want %t", res, w.from, w.to, tsc.buckets.hasTail, want)
			}
			for _, p := range tsc.buckets.interior {
				if lastSlot(&p) == live {
					t.Fatalf("%ds tier, window [%d, %d): interior aliases the live bucket", res, w.from, w.to)
				}
			}
		}
	}
}

// lastSlot returns the address of a page's last bucket, of either kind.
func lastSlot(p *tierPage) unsafe.Pointer {
	if p.vals != nil {
		return unsafe.Pointer(&p.vals[len(p.vals)-1])
	}
	return unsafe.Pointer(&p.gen[len(p.gen)-1])
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

	// Under appends that keep opening buckets across tier pages, every
	// capture is still the state at its version: ascending buckets holding
	// exactly the samples appended by then (the version counts one
	// registration and one per sample).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*tierPageBuckets; i++ {
			if err := st.Append(1, Sample{TS: 3600 + int64(i)*1800, Value: 1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tsc, err := st.TierScan(1, 3600, minInt64, minInt64, maxInt64, maxInt64)
				if err != nil {
					t.Error(err)
					return
				}
				n, prev := int64(0), int64(minInt64)
				tsc.Buckets(func(b *RollupBucket) {
					if b.Start <= prev {
						t.Errorf("bucket %d after %d", b.Start, prev)
					}
					n, prev = n+b.Count, b.Start
				})
				if want := int64(tsc.Version) - 1; n != want {
					t.Errorf("capture at version %d holds %d samples, want %d", tsc.Version, n, want)
					return
				}
			}
		}()
	}
	readers.Wait()
}

// TestSnapshotV2RoundTrip: a durable cycle's reopen derives the tiers from
// the snapshot's samples bit-identically to the live ones, each page sized
// exactly to the buckets it holds.
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
	// A bucket opened after recovery starts a new page in each tier, and
	// Bytes counts the room the page holds, not only the bucket in it.
	if err := st2.Append(1, Sample{TS: 2 * 86400, Value: 1}); err != nil {
		t.Fatal(err)
	}
	for i, rs := range st2.Stats().Rollups {
		if want := int64(stats.Rollups[i].Buckets+tierPageBuckets) * rollupBucketBytes; rs.Buckets != stats.Rollups[i].Buckets+1 || rs.Bytes != want {
			t.Errorf("after one append Rollups[%d] = %+v, want %d buckets in %d bytes", i, rs, stats.Rollups[i].Buckets+1, want)
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
