package gen

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vap/internal/store"
	"vap/internal/stream"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// serialLoad is LoadInto's reference: one meter at a time, registered and
// appended in order.
func serialLoad(t *testing.T, ds *Dataset) *store.Store {
	t.Helper()
	st := openStore(t)
	for i, c := range ds.Customers {
		if err := st.PutMeter(c.Meter); err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendBatch(c.Meter.ID, ds.Readings[i]); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// sameStore fails t unless got holds what want holds, meter by meter:
// every sample, the series statistics (chunk count, compressed bytes,
// version), the fingerprint of every meter and the global version.
func sameStore(t *testing.T, got, want *store.Store, ds *Dataset) {
	t.Helper()
	ids := make([]int64, len(ds.Customers))
	for i, c := range ds.Customers {
		ids[i] = c.Meter.ID
		g, err := got.Range(c.Meter.ID, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Range(c.Meter.ID, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("meter %d: %d samples, want %d, or they differ", c.Meter.ID, len(g), len(w))
		}
	}
	if g, w := got.SeriesStats(ids), want.SeriesStats(ids); !reflect.DeepEqual(g, w) {
		t.Fatalf("series stats differ:\n got %+v\nwant %+v", g, w)
	}
	if g, w := got.Fingerprint(nil), want.Fingerprint(nil); g != w {
		t.Fatalf("Fingerprint(all) = %#x, want %#x", g, w)
	}
	if g, w := got.Version(), want.Version(); g != w {
		t.Fatalf("Version() = %d, want %d", g, w)
	}
}

// TestLoadIntoMatchesSerial holds the parallel loader to a serial load at
// 1, 2 and 4 scheduler cores.
func TestLoadIntoMatchesSerial(t *testing.T) {
	ds := Generate(Config{Seed: 2, Days: 30})
	want := serialLoad(t, ds)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := openStore(t)
		err := ds.LoadInto(got)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		sameStore(t, got, want, ds)
	}
}

// TestLoadIntoClosedStoreFails checks that a store error stops the load:
// a closed store refuses the first registration.
func TestLoadIntoClosedStoreFails(t *testing.T) {
	st := openStore(t)
	st.Close()
	if err := Generate(smallConfig(1)).LoadInto(st); err == nil {
		t.Fatal("LoadInto into a closed store succeeded")
	}
}

// TestWithholdReplaysTheLastWeek loads what vapd -stream loads, checks
// the withheld week is out of the store and in the replayer's feeds, and
// that replaying them leaves the store as a full load does.
func TestWithholdReplaysTheLastWeek(t *testing.T) {
	ds := Generate(smallConfig(10))
	cutoff := ds.Start.Unix() + 3*24*3600
	st := openStore(t)
	if err := ds.Withhold(7).LoadInto(st); err != nil {
		t.Fatal(err)
	}
	_, last, _ := st.TimeBounds()
	if last != cutoff-3600 {
		t.Fatalf("store ends at %d, want %d (the hour before the withheld week)", last, cutoff-3600)
	}
	if got := st.Stats().Samples; got != len(ds.Customers)*3*24 {
		t.Fatalf("store holds %d samples, want %d", got, len(ds.Customers)*3*24)
	}
	feeds := make([]stream.Feed, len(ds.Customers))
	withheld := 0
	for i, c := range ds.Customers {
		feeds[i] = stream.Feed{MeterID: c.Meter.ID, Loc: c.Meter.Location, Samples: ds.Readings[i]}
		for _, s := range ds.Readings[i] {
			if s.TS > last {
				withheld++
			}
		}
	}
	if withheld != len(ds.Customers)*7*24 {
		t.Fatalf("feeds hold %d samples past the store, want %d", withheld, len(ds.Customers)*7*24)
	}
	rp := &stream.Replayer{St: st, Step: 3600}
	end := ds.Start.Unix() + int64(ds.Hours)*3600
	if _, err := rp.Run(context.Background(), feeds, last+1, end); err != nil {
		t.Fatal(err)
	}
	sameStore(t, st, serialLoad(t, ds), ds)

	// A window shorter than the withheld span keeps only the first hour.
	for i, r := range ds.Withhold(30).Readings {
		if len(r) != 1 || r[0] != ds.Readings[i][0] {
			t.Fatalf("meter %d keeps %d readings, want the first one", i, len(r))
		}
	}
}
