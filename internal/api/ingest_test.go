package api

// Tests for the batched ingest front door: both wire encodings, the
// skip-vs-fail error taxonomy, the sync flag, and the recovery stats
// surfaced through /api/stats.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vap/internal/core"
	"vap/internal/store"
)

// newIngestServer starts an httptest server over an empty store so tests
// create all state through the ingest endpoint itself.
func newIngestServer(t *testing.T, opts store.Options) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewServer(core.NewAnalyzer(st), nil).Routes())
	t.Cleanup(srv.Close)
	return srv, st
}

func postIngest(t *testing.T, url, contentType string, body []byte) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	return resp.StatusCode, out
}

func TestIngestNDJSON(t *testing.T) {
	srv, st := newIngestServer(t, store.Options{})
	body := strings.Join([]string{
		`{"meter":1,"lon":12.5,"lat":55.6,"zone":"residential"}`,
		`{"meter":2,"lon":12.6,"lat":55.7}`,
		`{"meter":1,"samples":[{"ts":60,"v":1.5},{"ts":120,"v":2.5},{"ts":180,"v":3.5}]}`,
		``, // blank lines are tolerated
		`{"meter":2,"ts":60,"v":9.25}`,
	}, "\n")
	code, out := postIngest(t, srv.URL+"/api/ingest", "application/x-ndjson", []byte(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["meters"] != 2.0 || out["samples"] != 4.0 {
		t.Errorf("response = %v, want 2 meters / 4 samples", out)
	}
	smps, err := st.Range(1, 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(smps) != 3 || smps[2].Value != 3.5 {
		t.Errorf("meter 1 rows = %v", smps)
	}
	if n := st.SeriesStats([]int64{2})[0].Samples; n != 1 {
		t.Errorf("meter 2 has %d samples, want 1", n)
	}
}

func TestIngestSkipsOutOfOrderAndUnknown(t *testing.T) {
	srv, st := newIngestServer(t, store.Options{})
	body := strings.Join([]string{
		`{"meter":1,"lon":12.5,"lat":55.6}`,
		`{"meter":1,"samples":[{"ts":100,"v":1},{"ts":200,"v":2}]}`,
		`{"meter":1,"samples":[{"ts":150,"v":7},{"ts":160,"v":8}]}`, // replayed history: skipped, not failed
		`{"meter":999,"ts":100,"v":5}`,                              // unregistered meter
	}, "\n")
	code, out := postIngest(t, srv.URL+"/api/ingest", "application/x-ndjson", []byte(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["samples"] != 2.0 || out["skipped_out_of_order"] != 2.0 || out["skipped_unknown_meter"] != 1.0 {
		t.Errorf("response = %v, want 2 accepted / 2 out-of-order / 1 unknown-meter", out)
	}
	if n := st.SeriesStats([]int64{1})[0].Samples; n != 2 {
		t.Errorf("meter 1 has %d samples, want 2", n)
	}
}

func TestIngestBinaryRoundTrip(t *testing.T) {
	srv, st := newIngestServer(t, store.Options{})
	var b []byte
	b = append(b, "VAPB"...)
	// 0x01: register meter 7.
	b = append(b, 0x01)
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(12.5))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(55.6))
	b = binary.LittleEndian.AppendUint16(b, 10)
	b = append(b, "industrial"...)
	// 0x02: three samples.
	b = append(b, 0x02)
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = binary.LittleEndian.AppendUint32(b, 3)
	for i, v := range []float64{1.25, math.NaN(), 3.75} {
		b = binary.LittleEndian.AppendUint64(b, uint64(60*(i+1)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	code, out := postIngest(t, srv.URL+"/api/ingest", "application/octet-stream", b)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["meters"] != 1.0 || out["samples"] != 3.0 {
		t.Errorf("response = %v, want 1 meter / 3 samples", out)
	}
	smps, err := st.Range(7, 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(smps) != 3 || !math.IsNaN(smps[1].Value) || smps[2].Value != 3.75 {
		t.Errorf("meter 7 rows = %v", smps)
	}
	m, ok := st.Catalog().Get(7)
	if !ok || m.Zone != store.ZoneType("industrial") {
		t.Errorf("meter 7 catalog entry = %+v ok=%t", m, ok)
	}
}

func TestIngestSyncDurable(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newIngestServer(t, store.Options{Dir: dir})
	body := `{"meter":1,"lon":1,"lat":2}` + "\n" + `{"meter":1,"ts":60,"v":4.5}`
	code, out := postIngest(t, srv.URL+"/api/ingest?sync=1", "application/x-ndjson", []byte(body))
	if code != http.StatusOK || out["synced"] != true {
		t.Fatalf("status %d, response %v", code, out)
	}
	// A synced 200 is a durability promise: a fresh open must see the data.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := st2.SeriesStats([]int64{1})[0].Samples; n != 1 {
		t.Errorf("recovered %d samples after synced ingest, want 1", n)
	}
}

// TestIngestSyncFlag: sync is 1, 0 or absent; any other value is a 400
// naming it before the body is read, not an unsynced 200.
func TestIngestSyncFlag(t *testing.T) {
	srv, st := newIngestServer(t, store.Options{})
	body := []byte(`{"meter":1,"lon":1,"lat":2}` + "\n" + `{"meter":1,"ts":60,"v":4.5}`)
	code, out := postIngest(t, srv.URL+"/api/ingest?sync=true", "application/x-ndjson", body)
	if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "bad sync parameter") {
		t.Errorf("sync=true: status %d, response %v; want 400 naming sync", code, out)
	}
	if n := st.Catalog().Len(); n != 0 {
		t.Errorf("sync=true applied the body: %d meters registered", n)
	}
	code, out = postIngest(t, srv.URL+"/api/ingest?sync=0", "application/x-ndjson", body)
	if code != http.StatusOK || out["synced"] != false || out["samples"] != 1.0 {
		t.Errorf("sync=0: status %d, response %v; want an unsynced 200 with 1 sample", code, out)
	}
}

func TestIngestBadInput(t *testing.T) {
	srv, _ := newIngestServer(t, store.Options{})
	cases := []struct {
		name, contentType string
		body              string
		want              int
	}{
		{"malformedJSON", "application/x-ndjson", `{"meter":`, http.StatusBadRequest},
		{"missingMeter", "application/x-ndjson", `{"ts":60,"v":1}`, http.StatusBadRequest},
		{"lonWithoutLat", "application/x-ndjson", `{"meter":1,"lon":12.5}`, http.StatusBadRequest},
		{"tsWithoutValue", "application/x-ndjson", `{"meter":1,"ts":60}`, http.StatusBadRequest},
		{"emptyObject", "application/x-ndjson", `{"meter":1}`, http.StatusBadRequest},
		{"unknownFrame", "application/octet-stream", "VAPB\xff" + strings.Repeat("\x00", 8), http.StatusBadRequest},
		{"truncatedFrame", "application/octet-stream", "VAPB\x02\x01\x00\x00", http.StatusBadRequest},
		// A frame declaring more samples than the cap is a size violation
		// (413: split the batch), not a syntax error.
		{"hugeBatchCount", "application/octet-stream", "VAPB\x02" + strings.Repeat("\x00", 8) + "\xff\xff\xff\xff", http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := postIngest(t, srv.URL+"/api/ingest", tc.contentType, []byte(tc.body))
			if code != tc.want {
				t.Errorf("status %d (%v), want %d", code, out, tc.want)
			}
		})
	}

	resp, err := http.Get(srv.URL + "/api/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /api/ingest = %d, want 405", resp.StatusCode)
	}
}

func TestStatsReportsRecovery(t *testing.T) {
	dir := t.TempDir()
	{
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutMeter(store.Meter{ID: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendBatch(1, []store.Sample{{TS: 60, Value: 1}, {TS: 120, Value: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := newIngestServer(t, store.Options{Dir: dir})
	var stats struct {
		LastRecoveryMS *int64 `json:"last_recovery_ms"`
		Recovery       struct {
			SnapshotFormat string `json:"snapshot_format"`
			SnapshotMeters int    `json:"snapshot_meters"`
		} `json:"recovery"`
	}
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.LastRecoveryMS == nil {
		t.Error("stats missing last_recovery_ms")
	}
	if stats.Recovery.SnapshotFormat != "v4" || stats.Recovery.SnapshotMeters != 1 {
		t.Errorf("stats recovery = %+v, want v4 snapshot with 1 meter", stats.Recovery)
	}
}

func BenchmarkIngestHTTP(b *testing.B) {
	st, err := store.Open(store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewServer(core.NewAnalyzer(st), nil).Routes())
	defer srv.Close()
	if err := st.PutMeter(store.Meter{ID: 1}); err != nil {
		b.Fatal(err)
	}
	const batch = 720
	b.Run("NDJSON", func(b *testing.B) {
		ts := int64(0)
		var sb strings.Builder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sb.Reset()
			sb.WriteString(`{"meter":1,"samples":[`)
			for j := 0; j < batch; j++ {
				ts++
				if j > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"ts":%d,"v":%g}`, ts, float64(j)*0.25)
			}
			sb.WriteString("]}\n")
			resp, err := http.Post(srv.URL+"/api/ingest", "application/x-ndjson", strings.NewReader(sb.String()))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.SetBytes(batch * 16)
	})
	b.Run("Binary", func(b *testing.B) {
		ts := int64(1 << 32) // above anything NDJSON wrote
		buf := make([]byte, 0, 4+13+batch*16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			buf = append(buf, "VAPB"...)
			buf = append(buf, 0x02)
			buf = binary.LittleEndian.AppendUint64(buf, 1)
			buf = binary.LittleEndian.AppendUint32(buf, batch)
			for j := 0; j < batch; j++ {
				ts++
				buf = binary.LittleEndian.AppendUint64(buf, uint64(ts))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(j)*0.25))
			}
			resp, err := http.Post(srv.URL+"/api/ingest", "application/octet-stream", bytes.NewReader(buf))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.SetBytes(batch * 16)
	})
}
