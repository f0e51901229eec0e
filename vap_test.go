package vap_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"vap"
)

// TestPublicAPIQuickstart exercises the README quickstart end to end
// through the public façade only.
func TestPublicAPIQuickstart(t *testing.T) {
	st, err := vap.OpenInMemory()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds := vap.GenerateDataset(vap.DatasetConfig{
		Seed: 1,
		Days: 30,
		Counts: map[vap.Pattern]int{
			vap.PatternBimodal:      10,
			vap.PatternEnergySaving: 10,
			vap.PatternConstantHigh: 10,
			vap.PatternEarlyBird:    10,
		},
	})
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	an := vap.NewAnalyzer(st)

	// S1: typical pattern discovery.
	view, err := an.TypicalPatterns(context.Background(), vap.TypicalConfig{
		Seed: 1, Method: vap.MethodMDS, Metric: vap.MetricPearson,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, rows, err := view.SelectBrush(vap.Brush{MaxX: 1, MaxY: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 40 {
		t.Fatalf("brush selected %d, want 40", len(ids))
	}
	profile, err := view.Profile(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile.Mean) == 0 {
		t.Fatal("empty profile")
	}

	// S2: shift pattern discovery.
	noon := ds.Start.Unix() + 10*86400 + 12*3600
	res, err := an.ShiftPatternsCtx(context.Background(), vap.ShiftConfig{
		T1: noon, T2: noon + 8*3600, Granularity: vap.Gran4Hourly,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.L1 <= 0 {
		t.Error("no shift signal in planted data")
	}

	// Presentation layer.
	hub := vap.NewStreamHub()
	srv := httptest.NewServer(vap.NewHTTPServer(an, hub))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("health status = %d", resp.StatusCode)
	}
}

// TestDurableStoreRoundTrip exercises the durability path via the façade.
func TestDurableStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := vap.Open(vap.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m := vap.Meter{ID: 1, Location: vap.Point{Lon: 12.5, Lat: 55.7}, Zone: vap.ZoneResidential}
	if err := st.PutMeter(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		if err := st.Append(1, vap.Sample{TS: int64(i) * 3600, Value: float64(i % 24)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := vap.Open(vap.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, err := st2.Range(1, 0, 1<<40)
	if err != nil || len(got) != 48 {
		t.Fatalf("reopened range = %d samples (%v)", len(got), err)
	}
}
