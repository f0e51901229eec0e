package api

// Regression tests for the ingest body caps: the seed read r.Body with no
// size bound, so one giant NDJSON line (no '\n') or an over-declared
// binary frame ballooned memory. Every violation must come back as 413
// with the skip counts of the work already applied, never as an OOM.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vap/internal/core"
	"vap/internal/store"
)

// newCappedServer starts a server whose ingest body cap is tiny, so the
// limit paths trigger without multi-GiB test bodies.
func newCappedServer(t *testing.T, maxBytes int64) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewServerWith(core.NewAnalyzer(st), nil, Config{MaxIngestBytes: maxBytes}).Routes())
	t.Cleanup(srv.Close)
	return srv, st
}

// TestIngestDeclaredBodyTooLarge: a Content-Length beyond the cap fails
// up front — before the body is read, admitted, or any line applied.
func TestIngestDeclaredBodyTooLarge(t *testing.T) {
	srv, st := newCappedServer(t, 1024)
	body := strings.Repeat("x", 4096)
	code, out := postIngest(t, srv.URL+"/api/ingest", "application/x-ndjson", []byte(body))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%v), want 413", code, out)
	}
	if n := st.Stats().Meters; n != 0 {
		t.Fatalf("over-declared body mutated the store: %d meters", n)
	}
}

// TestIngestChunkedBodyOverCap: with no Content-Length (chunked transfer)
// the MaxBytesReader backstop must trip mid-stream. Lines read before the
// cap are applied and their counts reported alongside the 413, so the
// sender can split and resume instead of re-sending.
func TestIngestChunkedBodyOverCap(t *testing.T) {
	srv, st := newCappedServer(t, 4096)
	var body bytes.Buffer
	body.WriteString(`{"meter":1,"lon":12.5,"lat":55.6,"zone":"residential"}` + "\n")
	body.WriteString(`{"meter":1,"samples":[{"ts":60,"v":1},{"ts":120,"v":2}]}` + "\n")
	for body.Len() < 8192 {
		body.WriteString(`{"meter":999,"ts":9999999999,"v":1}` + "\n")
	}
	// Wrapping the reader hides its length, so net/http sends chunked and
	// the pre-read Content-Length check cannot fire.
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/ingest", struct{ io.Reader }{&body})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	out := decodeBody(t, resp.Body)
	if out["meters"] != 1.0 {
		t.Errorf("413 response must report the meter applied before the cap: %v", out)
	}
	if out["samples"].(float64) < 2 {
		t.Errorf("413 response must report samples applied before the cap: %v", out)
	}
	if n := st.Stats().Meters; n != 1 {
		t.Errorf("store has %d meters, want the 1 applied pre-cap", n)
	}
}

// TestIngestOversizedNDJSONLine: one line larger than the per-line cap —
// the "no newline ever arrives" attack — is a 413 from the scanner's
// buffer bound, with earlier lines' work reported.
func TestIngestOversizedNDJSONLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >16MiB body")
	}
	srv, st := newIngestServer(t, store.Options{})
	var body bytes.Buffer
	body.WriteString(`{"meter":7,"lon":1,"lat":2,"zone":"industrial"}` + "\n")
	body.WriteString(`{"meter":7,"zone":"`)
	body.Write(bytes.Repeat([]byte{'a'}, ingestMaxLine+1)) // never a '\n'
	code, out := postIngest(t, srv.URL+"/api/ingest", "application/x-ndjson", body.Bytes())
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%v), want 413 for an oversized line", code, out)
	}
	if out["meters"] != 1.0 {
		t.Errorf("pre-line work missing from 413 report: %v", out)
	}
	if n := st.Stats().Meters; n != 1 {
		t.Errorf("store has %d meters, want 1", n)
	}
}

// TestIngestOversizedBinaryFrame: a VAPB sample frame declaring more than
// the per-frame cap is a 413 (split the batch), and frames before it are
// applied and reported.
func TestIngestOversizedBinaryFrame(t *testing.T) {
	srv, st := newIngestServer(t, store.Options{})
	var b []byte
	b = append(b, "VAPB"...)
	b = append(b, ingestFrameMeter)
	b = binary.LittleEndian.AppendUint64(b, 3)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(12.5))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(55.6))
	b = binary.LittleEndian.AppendUint16(b, 11)
	b = append(b, "residential"...)
	b = append(b, ingestFrameSamples)
	b = binary.LittleEndian.AppendUint64(b, 3)
	b = binary.LittleEndian.AppendUint32(b, 2)
	for i, v := range []float64{1, 2} {
		b = binary.LittleEndian.AppendUint64(b, uint64(60*(i+1)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	// A frame header declaring ingestMaxBatch+1 samples with no payload.
	b = append(b, ingestFrameSamples)
	b = binary.LittleEndian.AppendUint64(b, 3)
	b = binary.LittleEndian.AppendUint32(b, ingestMaxBatch+1)
	code, out := postIngest(t, srv.URL+"/api/ingest", "application/octet-stream", b)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%v), want 413 for an oversized frame", code, out)
	}
	if out["meters"] != 1.0 || out["samples"] != 2.0 {
		t.Errorf("pre-frame work missing from 413 report: %v", out)
	}
	if n := st.SeriesStats([]int64{3})[0].Samples; n != 2 {
		t.Errorf("meter 3 has %d samples, want the 2 applied pre-frame", n)
	}
}

func decodeBody(t *testing.T, r io.Reader) map[string]interface{} {
	t.Helper()
	var out map[string]interface{}
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return out
}
