package stream

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"vap/internal/geo"
	"vap/internal/kde"
	"vap/internal/store"
)

func box() geo.BBox {
	return geo.NewBBox(geo.Point{Lon: 12.4, Lat: 55.5}, geo.Point{Lon: 12.8, Lat: 55.9})
}

func TestHubSubscribePublish(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe()
	defer cancel()
	if n := len(h.subs); n != 1 {
		t.Fatalf("subscribers = %d", n)
	}
	h.Publish(Event{Seq: 1, Count: 5})
	select {
	case e := <-ch:
		if e.Seq != 1 || e.Count != 5 {
			t.Fatalf("event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("no event delivered")
	}
}

func TestHubLateSubscriberGetsLastEvent(t *testing.T) {
	h := NewHub()
	h.Publish(Event{Seq: 9})
	ch, cancel := h.Subscribe()
	defer cancel()
	select {
	case e := <-ch:
		if e.Seq != 9 {
			t.Fatalf("replayed event = %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("late subscriber got nothing")
	}
}

func TestHubUnsubscribeIdempotent(t *testing.T) {
	h := NewHub()
	_, cancel := h.Subscribe()
	cancel()
	cancel() // second call must not panic
	if n := len(h.subs); n != 0 {
		t.Fatalf("subscribers = %d", n)
	}
	h.Publish(Event{Seq: 1}) // publishing with no subscribers is fine
}

func TestHubSlowSubscriberDropsNotBlocks(t *testing.T) {
	h := NewHub()
	_, cancel := h.Subscribe() // never drained
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			h.Publish(Event{Seq: int64(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publish blocked on slow subscriber")
	}
}

func TestTrackerMatchesBatchKDE(t *testing.T) {
	// After any sequence of updates the tracker must equal a batch KDE over
	// each meter's latest reading. Both run on kde.Field.Stamp, so what is
	// left is the rounding of the replaced readings' take-outs: 1e-12 of
	// the peak, not the 1e-5 a second footprint loop would need.
	const meters, updates = 40, 2000
	rng := rand.New(rand.NewSource(7))
	locs := make([]geo.Point, meters)
	for i := range locs {
		locs[i] = geo.Point{Lon: 12.4 + rng.Float64()*0.4, Lat: 55.5 + rng.Float64()*0.4}
	}
	tr, err := NewTracker(box(), 48, 40, 0.02, meters)
	if err != nil {
		t.Fatal(err)
	}
	latest := make([]kde.WeightedPoint, meters)
	for i := range latest {
		latest[i].Loc = locs[i] // never-updated meters weigh nothing
	}
	for u := 0; u < updates; u++ {
		i := rng.Intn(meters - 1) // the last meter is never updated
		w := rng.Float64()
		if u%97 == 0 {
			w = 0
		}
		latest[i].Weight = w
		tr.Update(int64(i), latest[i])
	}
	snap, sum := tr.Snapshot()
	batch, err := kde.Estimate(latest, box(), kde.Config{Cols: 48, Rows: 40, Bandwidth: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	_, peak := batch.MinMax()
	for i := range snap.Values {
		if math.Abs(snap.Values[i]-batch.Values[i]) > 1e-12*peak {
			t.Fatalf("cell %d: tracker %v vs batch %v", i, snap.Values[i], batch.Values[i])
		}
	}
	if math.Abs(sum.MaxDensity-peak) > 1e-12*peak {
		t.Errorf("summary peak %v, batch %v", sum.MaxDensity, peak)
	}
}

func TestTrackerErrors(t *testing.T) {
	if _, err := NewTracker(box(), 8, 8, 0, 3); err == nil {
		t.Error("zero bandwidth should fail")
	}
	if _, err := NewTracker(box(), 8, 8, 0.01, 0); err == nil {
		t.Error("zero population should fail")
	}
	if _, err := NewTracker(geo.EmptyBBox(), 8, 8, 0.01, 3); err == nil {
		t.Error("empty box should fail")
	}
}

func TestTrackerSnapshotIsCopy(t *testing.T) {
	tr, _ := NewTracker(box(), 8, 8, 0.05, 1)
	tr.Update(1, kde.WeightedPoint{Loc: geo.Point{Lon: 12.6, Lat: 55.7}, Weight: 1})
	snap1, _ := tr.Snapshot()
	tr.Update(1, kde.WeightedPoint{Loc: geo.Point{Lon: 12.5, Lat: 55.6}, Weight: 2})
	snap2, _ := tr.Snapshot()
	same := true
	for i := range snap1.Values {
		if snap1.Values[i] != snap2.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("snapshot aliases the live field")
	}
}

func makeFeeds(n, hours int) []Feed {
	feeds := make([]Feed, n)
	for i := range feeds {
		samples := make([]store.Sample, hours)
		for h := range samples {
			samples[h] = store.Sample{TS: int64(h) * 3600, Value: float64(i + 1)}
		}
		feeds[i] = Feed{
			MeterID: int64(i + 1),
			Loc:     geo.Point{Lon: 12.5 + float64(i)*0.01, Lat: 55.6},
			Samples: samples,
		}
	}
	return feeds
}

func TestReplayerFeedsStoreAndHub(t *testing.T) {
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	feeds := makeFeeds(3, 24)
	for _, f := range feeds {
		if err := st.PutMeter(store.Meter{ID: f.MeterID, Location: f.Loc, Zone: store.ZoneResidential}); err != nil {
			t.Fatal(err)
		}
	}
	tr, _ := NewTracker(box(), 16, 16, 0.02, 3)
	hub := NewHub()
	ch, cancel := hub.Subscribe()
	defer cancel()
	events := 0
	drained := make(chan struct{})
	go func() {
		for range ch {
			events++
		}
		close(drained)
	}()
	rp := &Replayer{St: st, Tracker: tr, Hub: hub, Interval: 0, Step: 3600}
	ticks, err := rp.Run(context.Background(), feeds, 0, 24*3600)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 24 {
		t.Fatalf("ticks = %d, want 24", ticks)
	}
	cancel()
	<-drained
	if events == 0 {
		t.Error("no hub events")
	}
	for _, f := range feeds {
		if n := st.SeriesStats([]int64{f.MeterID})[0].Samples; n != 24 {
			t.Fatalf("meter %d stored %d samples", f.MeterID, n)
		}
	}
}

func TestReplayerWindowRespected(t *testing.T) {
	feeds := makeFeeds(1, 48)
	tr, _ := NewTracker(box(), 8, 8, 0.05, 1)
	rp := &Replayer{Tracker: tr, Step: 3600}
	ticks, err := rp.Run(context.Background(), feeds, 10*3600, 20*3600)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

func TestReplayerCancellation(t *testing.T) {
	feeds := makeFeeds(1, 1000)
	rp := &Replayer{Interval: 50 * time.Millisecond, Step: 3600}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	_, err := rp.Run(ctx, feeds, 0, 1000*3600)
	if err == nil {
		t.Fatal("cancelled replayer should return an error")
	}
}

// TestReplayerStampsDataVersion asserts streamed events carry the
// two-level {global, fingerprint} stamp, advancing tick over tick.
func TestReplayerStampsDataVersion(t *testing.T) {
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	feeds := makeFeeds(2, 8)
	for _, f := range feeds {
		if err := st.PutMeter(store.Meter{ID: f.MeterID, Location: f.Loc, Zone: store.ZoneResidential}); err != nil {
			t.Fatal(err)
		}
	}
	hub := NewHub()
	ch, cancel := hub.Subscribe()
	defer cancel()
	var versions []DataVersion
	drained := make(chan struct{})
	go func() {
		for e := range ch {
			versions = append(versions, e.DataVersion)
		}
		close(drained)
	}()
	rp := &Replayer{St: st, Hub: hub, Step: 3600}
	if _, err := rp.Run(context.Background(), feeds, 0, 8*3600); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-drained
	if len(versions) == 0 {
		t.Fatal("no events")
	}
	for i, v := range versions {
		if v.Global == 0 || v.Fingerprint == 0 {
			t.Fatalf("event %d: zero version stamp %+v", i, v)
		}
		if i > 0 {
			prev := versions[i-1]
			if v.Global <= prev.Global {
				t.Fatalf("global not advancing: %d -> %d", prev.Global, v.Global)
			}
			if v.Fingerprint == prev.Fingerprint {
				t.Fatalf("fingerprint unchanged across ingest tick %d", i)
			}
		}
	}
}
