package store

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vap/internal/geo"
)

// TestPersistenceBytesPinned holds the on-disk formats byte for byte, where
// the round-trip tests only compare recovered states.
//
//   - testdata/v4.vap is Snapshot() of fillStore(3, 1500) with no
//     retention; a fresh fill must write exactly those bytes at any shard
//     count. It and testdata/legacy/v3.vap, the same fill as the last VAP3
//     writer wrote it, must both load to the live-built state.
//   - A WAL segment of three group commits must hold exactly the frames
//     below.
func TestPersistenceBytesPinned(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v4.vap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 0} {
		dir := t.TempDir()
		st, err := Open(Options{Dir: dir, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, st, 3, 1500)
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "snapshot.vap"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, golden) {
			t.Errorf("shards=%d: snapshot is %d bytes and differs from the %d-byte golden v4.vap", shards, len(raw), len(golden))
		}
	}

	live, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	fillStore(t, live, 3, 1500)
	v4Dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(v4Dir, "snapshot.vap"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ format, dir string }{{"v3", legacySnapshotDir(t, "v3.vap")}, {"v4", v4Dir}} {
		loaded, err := Open(Options{Dir: g.dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := loaded.Recovery().SnapshotFormat; got != g.format {
			t.Errorf("golden %s loaded as format %q", g.format, got)
		}
		parityCompare(t, "golden "+g.format+" vs live", live, loaded)
		loaded.Close()
	}

	// One synced append per group commit: each batch is its commit marker
	// (naming its own segment offset) followed by the record.
	dir := t.TempDir()
	w, err := OpenWAL(dir, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, write := range []func() (*WALCommit, error){
		func() (*WALCommit, error) {
			return w.AppendMeter(Meter{ID: 7, Location: geo.Point{Lon: 12.5, Lat: 55.6}, Zone: ZoneResidential}, true)
		},
		func() (*WALCommit, error) {
			return w.AppendMeter(Meter{ID: -2, Location: geo.Point{Lon: -0.125, Lat: -33.75}}, true)
		},
		func() (*WALCommit, error) {
			return w.AppendSamples(7, []Sample{{TS: -3600, Value: math.NaN()}}, true)
		},
	} {
		c, err := write()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg[:walHeaderLen], walMagic[:]) {
		t.Fatalf("segment magic %x", seg[:walHeaderLen])
	}
	off := walHeaderLen
	for _, row := range []struct{ name, hex string }{
		{"commit marker at byte 4", "0308000000040000000000000093d168e1"},
		{"meter with a zone", "012500000007000000000000000000000000002940cdcccccccccc4b400b007265736964656e7469616c2cac8c87"},
		{"commit marker at byte 67", "03080000004300000000000000671a30c2"},
		{"meter with an empty zone", "011a000000feffffffffffffff000000000000c0bf0000000000e040c00000804c8cf1"},
		{"commit marker at byte 119", "03080000007700000000000000e047b7c3"},
		{"NaN sample", "02180000000700000000000000f0f1ffffffffffff010000000000f87fa4085bb6"},
	} {
		want, _ := hex.DecodeString(row.hex)
		end := min(off+len(want), len(seg))
		if got := seg[off:end]; !bytes.Equal(got, want) {
			t.Errorf("%s at byte %d: %x, want %s", row.name, off, got, row.hex)
		}
		off = end
	}
	if off != len(seg) {
		t.Errorf("segment has %d bytes past the pinned frames", len(seg)-off)
	}
}
