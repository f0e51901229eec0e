package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/store"
	"vap/internal/stream"
)

// newTestAnalyzer builds a small dataset and an analyzer over it.
func newTestAnalyzer(t *testing.T) (*core.Analyzer, *gen.Dataset) {
	t.Helper()
	ds := gen.Generate(gen.Config{
		Seed: 3,
		Days: 20,
		Counts: map[gen.Pattern]int{
			gen.PatternBimodal:      8,
			gen.PatternEnergySaving: 8,
			gen.PatternConstantHigh: 8,
			gen.PatternEarlyBird:    8,
		},
	})
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	return core.NewAnalyzer(st), ds
}

// newTestServer builds a small dataset and an httptest server around it.
func newTestServer(t *testing.T, hub *stream.Hub) (*httptest.Server, *gen.Dataset) {
	t.Helper()
	an, ds := newTestAnalyzer(t)
	srv := httptest.NewServer(NewServer(an, hub).Routes())
	t.Cleanup(srv.Close)
	return srv, ds
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	var got map[string]string
	if code := getJSON(t, srv.URL+"/api/health", &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if got["status"] != "ok" {
		t.Errorf("health = %v", got)
	}
}

func TestStats(t *testing.T) {
	srv, ds := newTestServer(t, nil)
	var got map[string]interface{}
	if code := getJSON(t, srv.URL+"/api/stats", &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if int(got["meters"].(float64)) != len(ds.Customers) {
		t.Errorf("meters = %v, want %d", got["meters"], len(ds.Customers))
	}
	if got["compression"].(float64) <= 1 {
		t.Errorf("compression = %v, want > 1", got["compression"])
	}
}

// TestSeriesStats checks the planner-statistics endpoint: per-series
// sample/block counts and bounds for an explicit meter selection, without
// decoding any data.
func TestSeriesStats(t *testing.T) {
	srv, ds := newTestServer(t, nil)
	id := ds.Customers[0].Meter.ID
	var got struct {
		Count  int                 `json:"count"`
		Series []store.SeriesStats `json:"series"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/stats/series?ids=%d", srv.URL, id), &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if got.Count != 1 || len(got.Series) != 1 {
		t.Fatalf("count = %d, series = %d, want 1", got.Count, len(got.Series))
	}
	st := got.Series[0]
	if st.MeterID != id {
		t.Errorf("meter_id = %d, want %d", st.MeterID, id)
	}
	if st.Samples != 20*24 { // Days * hourly samples
		t.Errorf("samples = %d, want %d", st.Samples, 20*24)
	}
	if st.Blocks == 0 || st.CompressedBytes == 0 {
		t.Errorf("blocks = %d, compressed = %d, want > 0", st.Blocks, st.CompressedBytes)
	}
	if st.MinTS >= st.MaxTS {
		t.Errorf("bounds [%d, %d] not ascending", st.MinTS, st.MaxTS)
	}

	// Unfiltered: one entry per registered meter.
	if code := getJSON(t, srv.URL+"/api/stats/series", &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if got.Count != len(ds.Customers) {
		t.Errorf("count = %d, want %d", got.Count, len(ds.Customers))
	}

	// Malformed selection is a 400, not a silent full scan.
	if code := getJSON(t, srv.URL+"/api/stats/series?bbox=1,2,3", nil); code != 400 {
		t.Errorf("bad bbox status = %d, want 400", code)
	}
}

func postJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestAdminSnapshot exercises the on-demand durability trigger: POST runs a
// snapshot, covered WAL segments are retired, /api/stats reports the WAL
// footprint and snapshot age, and a snapshot event reaches SSE subscribers.
func TestAdminSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ds := gen.Generate(gen.Config{Seed: 5, Days: 3, Counts: map[gen.Pattern]int{gen.PatternBimodal: 4}})
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	hub := stream.NewHub()
	srv := httptest.NewServer(NewServer(core.NewAnalyzer(st), hub).Routes())
	t.Cleanup(srv.Close)
	events, unsub := hub.Subscribe()
	t.Cleanup(unsub)

	if code := getJSON(t, srv.URL+"/api/admin/snapshot", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET snapshot status = %d, want 405", code)
	}
	var snap struct {
		Status           string `json:"status"`
		WALSegments      int    `json:"wal_segments"`
		LastSnapshotUnix int64  `json:"last_snapshot_unix"`
	}
	if code := postJSON(t, srv.URL+"/api/admin/snapshot", &snap); code != 200 {
		t.Fatalf("POST snapshot status = %d", code)
	}
	if snap.Status != "ok" || snap.WALSegments != 1 || snap.LastSnapshotUnix == 0 {
		t.Errorf("snapshot response = %+v, want ok / 1 bare segment / timestamp", snap)
	}
	select {
	case e := <-events:
		if e.Kind != stream.KindSnapshot {
			t.Errorf("event kind = %q, want %q", e.Kind, stream.KindSnapshot)
		}
		if e.WALSegments != 1 {
			t.Errorf("event wal_segments = %d, want 1", e.WALSegments)
		}
	case <-time.After(2 * time.Second):
		t.Error("no snapshot event reached the hub")
	}

	var stats struct {
		WALSegments    int   `json:"wal_segments"`
		WALBytes       int64 `json:"wal_bytes"`
		LastSnapUnix   int64 `json:"last_snapshot_unix"`
		LastSnapAgeSec int64 `json:"last_snapshot_age_sec"`
	}
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	if stats.WALSegments != 1 || stats.WALBytes <= 0 {
		t.Errorf("stats wal = %d segments / %d bytes, want 1 bare segment", stats.WALSegments, stats.WALBytes)
	}
	if stats.LastSnapUnix == 0 || stats.LastSnapAgeSec < 0 {
		t.Errorf("stats snapshot age = unix %d / age %d", stats.LastSnapUnix, stats.LastSnapAgeSec)
	}
}

// TestAdminSnapshotInMemory: a store without a durability directory cannot
// snapshot; the trigger reports the conflict instead of a generic 500.
func TestAdminSnapshotInMemory(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	if code := postJSON(t, srv.URL+"/api/admin/snapshot", nil); code != http.StatusConflict {
		t.Errorf("in-memory snapshot status = %d, want 409", code)
	}
	// And stats still render, with a zero WAL footprint and no snapshot.
	var stats struct {
		WALSegments    int   `json:"wal_segments"`
		LastSnapAgeSec int64 `json:"last_snapshot_age_sec"`
	}
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	if stats.WALSegments != 0 || stats.LastSnapAgeSec != -1 {
		t.Errorf("in-memory stats: wal_segments=%d age=%d, want 0 / -1", stats.WALSegments, stats.LastSnapAgeSec)
	}
}

func TestCustomersFilters(t *testing.T) {
	srv, ds := newTestServer(t, nil)
	var all struct {
		Count     int           `json:"count"`
		Customers []store.Meter `json:"customers"`
	}
	if code := getJSON(t, srv.URL+"/api/customers", &all); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if all.Count != len(ds.Customers) {
		t.Errorf("count = %d, want %d", all.Count, len(ds.Customers))
	}
	// Zone filter.
	var com struct {
		Count     int           `json:"count"`
		Customers []store.Meter `json:"customers"`
	}
	getJSON(t, srv.URL+"/api/customers?zone=commercial", &com)
	if com.Count == 0 || com.Count >= all.Count {
		t.Errorf("commercial count = %d of %d", com.Count, all.Count)
	}
	for _, m := range com.Customers {
		if m.Zone != store.ZoneCommercial {
			t.Errorf("zone filter leaked %s", m.Zone)
		}
	}
	// ID filter.
	var two struct {
		Count int `json:"count"`
	}
	getJSON(t, srv.URL+"/api/customers?ids=1,2", &two)
	if two.Count != 2 {
		t.Errorf("ids filter count = %d", two.Count)
	}
	// Malformed bbox.
	if code := getJSON(t, srv.URL+"/api/customers?bbox=1,2,3", nil); code != 400 {
		t.Errorf("bad bbox status = %d", code)
	}
	// Empty bbox result.
	if code := getJSON(t, srv.URL+"/api/customers?bbox=0,0,1,1", nil); code != 404 {
		t.Errorf("empty bbox status = %d", code)
	}
}

func TestSeriesEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	var got struct {
		Buckets []struct {
			Start int64   `json:"start"`
			Value float64 `json:"value"`
		} `json:"buckets"`
	}
	if code := getJSON(t, srv.URL+"/api/series?id=1&granularity=daily", &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(got.Buckets) != 20 {
		t.Errorf("buckets = %d, want 20 days", len(got.Buckets))
	}
	if code := getJSON(t, srv.URL+"/api/series", nil); code != 400 {
		t.Errorf("missing id status = %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/series?id=1&granularity=decade", nil); code != 400 {
		t.Errorf("bad granularity status = %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/series?id=9999", nil); code != 400 {
		t.Errorf("unknown meter status = %d", code)
	}
}

func TestReduceAndPatterns(t *testing.T) {
	srv, ds := newTestServer(t, nil)
	var view struct {
		MeterIDs []int64      `json:"meter_ids"`
		Points   [][2]float64 `json:"points"`
	}
	if code := getJSON(t, srv.URL+"/api/reduce?method=mds", &view); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(view.Points) != len(ds.Customers) || len(view.MeterIDs) != len(view.Points) {
		t.Fatalf("view shape: %d points, %d ids", len(view.Points), len(view.MeterIDs))
	}
	// Full-view brush returns everything.
	var pat struct {
		Selected int `json:"selected"`
		Profile  struct {
			Label string    `json:"label"`
			Mean  []float64 `json:"mean"`
		} `json:"profile"`
	}
	if code := getJSON(t, srv.URL+"/api/patterns?method=mds&bx0=0&by0=0&bx1=1&by1=1", &pat); code != 200 {
		t.Fatalf("patterns status = %d", code)
	}
	if pat.Selected != len(ds.Customers) {
		t.Errorf("selected = %d", pat.Selected)
	}
	if len(pat.Profile.Mean) == 0 {
		t.Error("empty profile mean")
	}
	// Out-of-range brush.
	if code := getJSON(t, srv.URL+"/api/patterns?method=mds&bx0=2&by0=2&bx1=3&by1=3", nil); code != 404 {
		t.Errorf("empty brush status = %d", code)
	}
	// Unknown method.
	if code := getJSON(t, srv.URL+"/api/reduce?method=umap", nil); code != 400 {
		t.Errorf("unknown method status = %d", code)
	}
}

func TestReduceCaching(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	t0 := time.Now()
	if code := getJSON(t, srv.URL+"/api/reduce?method=mds", nil); code != 200 {
		t.Fatal("first reduce failed")
	}
	cold := time.Since(t0)
	t0 = time.Now()
	getJSON(t, srv.URL+"/api/reduce?method=mds", nil)
	warm := time.Since(t0)
	if warm > cold {
		t.Logf("warm %v vs cold %v (cache may still help under noise)", warm, cold)
	}
}

func TestFlowEndpoint(t *testing.T) {
	srv, ds := newTestServer(t, nil)
	noon := ds.Start.Unix() + 5*86400 + 12*3600
	var got struct {
		Flows   []json.RawMessage `json:"flows"`
		Summary struct {
			L1 float64 `json:"l1"`
		} `json:"summary"`
		Meters int `json:"meters"`
	}
	url := fmt.Sprintf("%s/api/flow?t1=%d&t2=%d&granularity=4hourly", srv.URL, noon, noon+8*3600)
	if code := getJSON(t, url, &got); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if got.Meters != len(ds.Customers) {
		t.Errorf("meters = %d", got.Meters)
	}
	if got.Summary.L1 <= 0 {
		t.Errorf("summary L1 = %v", got.Summary.L1)
	}
	// Missing anchors.
	if code := getJSON(t, srv.URL+"/api/flow?granularity=hourly", nil); code != 400 {
		t.Errorf("missing t1/t2 status = %d", code)
	}
}

func TestSVGViews(t *testing.T) {
	srv, ds := newTestServer(t, nil)
	noon := ds.Start.Unix() + 5*86400 + 12*3600
	paths := []string{
		"/view/map.svg?mode=markers",
		fmt.Sprintf("/view/map.svg?mode=heat&from=%d&to=%d", noon, noon+4*3600),
		fmt.Sprintf("/view/map.svg?mode=shift&t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600),
		"/view/scatter.svg?method=mds",
		"/view/scatter.svg?method=mds&bx0=0.2&by0=0.2&bx1=0.8&by1=0.8",
		"/view/series.svg?granularity=daily",
	}
	for _, p := range paths {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s status = %d: %s", p, resp.StatusCode, body[:min(len(body), 120)])
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Errorf("%s content type = %q", p, ct)
		}
		if !strings.HasPrefix(string(body), "<svg") {
			t.Errorf("%s does not look like SVG", p)
		}
	}
	// Bad mode.
	resp, _ := http.Get(srv.URL + "/view/map.svg?mode=3d")
	if resp.StatusCode != 400 {
		t.Errorf("bad mode status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestNonFiniteReadingKeepsViewsRenderable is the regression test for one
// bad reading blanking the paper's views: a NaN and a +Inf reading (both
// arrive through VAPB ingest) inside the flow windows used to poison the
// bucket means, so the JSON views answered 200 with an empty body (NaN has
// no JSON encoding) and the SVG views drew an empty frame or NaN
// coordinates. The views finalize a fold the way VQL does: the NaN reading
// is skipped and the +Inf one leaves its bucket without a value.
func TestNonFiniteReadingKeepsViewsRenderable(t *testing.T) {
	ds := gen.Generate(gen.Config{Seed: 1, Days: 30})
	noon := ds.Start.Unix() + 5*86400 + 12*3600
	bad := []struct {
		row int
		smp store.Sample
	}{
		{0, store.Sample{TS: noon + 60, Value: math.NaN()}},           // the t1 window of both flow maps, the heat window
		{1, store.Sample{TS: noon + 8*3600 + 60, Value: math.Inf(1)}}, // t2, the heat window
	}
	for _, b := range bad {
		rs := ds.Readings[b.row]
		at := slices.IndexFunc(rs, func(s store.Sample) bool { return s.TS > b.smp.TS })
		ds.Readings[b.row] = slices.Insert(rs, at, b.smp)
	}
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(core.NewAnalyzer(st), nil).Routes())
	t.Cleanup(srv.Close)
	nanID, infID := ds.Customers[0].Meter.ID, ds.Customers[1].Meter.ID
	paths := []string{
		fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600),
		fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=hourly", noon, noon+8*3600),
		fmt.Sprintf("/api/series?id=%d&granularity=hourly", nanID),
		fmt.Sprintf("/api/series?id=%d&granularity=daily", nanID),
		fmt.Sprintf("/api/series?id=%d&granularity=hourly", infID),
		fmt.Sprintf("/api/series?id=%d&granularity=daily", infID),
		"/api/reduce?method=mds",
		"/api/patterns?method=mds",
		fmt.Sprintf("/view/map.svg?mode=heat&from=%d&to=%d", noon, noon+12*3600),
		fmt.Sprintf("/view/map.svg?mode=shift&t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600),
		"/view/series.svg?granularity=daily",
		"/view/scatter.svg?method=mds",
	}
	for _, p := range paths {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status %d: %s", p, resp.StatusCode, body[:min(len(body), 120)])
			continue
		}
		if !strings.HasPrefix(p, "/view/") {
			if !json.Valid(body) {
				t.Errorf("%s: %d-byte body is not JSON", p, len(body))
			}
			continue
		}
		// The empty frame is one background rect; a view draws marks on it.
		svg := string(body)
		marks := strings.Count(svg, "<rect") + strings.Count(svg, "<circle") + strings.Count(svg, "<polyline")
		if strings.Contains(svg, "NaN") || marks < 2 {
			t.Errorf("%s: %d-byte SVG with %d marks holds NaN or only the empty frame", p, len(body), marks)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestIndexPage(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "VAP") {
		t.Errorf("index page broken: %d", resp.StatusCode)
	}
	// Unknown path 404s.
	resp, _ = http.Get(srv.URL + "/nope")
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
}

func TestStreamEndpointDisabled(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	resp, err := http.Get(srv.URL + "/api/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("stream without hub status = %d", resp.StatusCode)
	}
}

func TestStreamEndpointSSE(t *testing.T) {
	hub := stream.NewHub()
	srv, _ := newTestServer(t, hub)
	var wg sync.WaitGroup
	wg.Add(1)
	lines := make(chan string, 16)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/api/stream")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") {
				lines <- line
				return
			}
		}
	}()
	// Keep publishing until the subscriber has registered and read one.
	deadline := time.After(3 * time.Second)
	for {
		select {
		case line := <-lines:
			if !strings.Contains(line, `"seq":7`) {
				t.Errorf("sse line = %q", line)
			}
			wg.Wait()
			return
		case <-deadline:
			t.Fatal("no SSE event received")
		default:
			hub.Publish(stream.Event{Seq: 7, Count: 1})
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestDataVersionShape asserts the two-level {global, fingerprint} version
// stamp on /api/stats and /api/exec, and that an ingest moves both.
func TestDataVersionShape(t *testing.T) {
	ds := gen.Generate(gen.Config{
		Seed:   3,
		Days:   10,
		Counts: map[gen.Pattern]int{gen.PatternBimodal: 4},
	})
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(core.NewAnalyzer(st), nil).Routes())
	t.Cleanup(srv.Close)

	type versioned struct {
		Shards      int                `json:"shards"`
		DataVersion stream.DataVersion `json:"data_version"`
	}
	var stats, execStats versioned
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/exec", &execStats); code != 200 {
		t.Fatalf("exec status = %d", code)
	}
	if stats.Shards <= 0 {
		t.Errorf("stats shards = %d, want > 0", stats.Shards)
	}
	if stats.DataVersion.Global == 0 || stats.DataVersion.Fingerprint == 0 {
		t.Errorf("stats data_version = %+v, want nonzero fields", stats.DataVersion)
	}
	if execStats.DataVersion != stats.DataVersion {
		t.Errorf("exec and stats disagree: %+v vs %+v", execStats.DataVersion, stats.DataVersion)
	}

	id := ds.Customers[0].Meter.ID
	_, last, _ := st.Bounds(id)
	if err := st.Append(id, store.Sample{TS: last + 3600, Value: 1}); err != nil {
		t.Fatal(err)
	}
	var after versioned
	getJSON(t, srv.URL+"/api/stats", &after)
	if after.DataVersion.Global <= stats.DataVersion.Global {
		t.Errorf("global did not advance: %d -> %d", stats.DataVersion.Global, after.DataVersion.Global)
	}
	if after.DataVersion.Fingerprint == stats.DataVersion.Fingerprint {
		t.Error("all-meters fingerprint unchanged after append")
	}
}
