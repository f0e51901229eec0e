package api

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"vap/internal/core"
	"vap/internal/geo"
	"vap/internal/store"
)

// binMeter appends a VAPB register frame.
func binMeter(b []byte, id int64, lon, lat float64, zone string) []byte {
	b = append(b, ingestFrameMeter)
	b = binary.LittleEndian.AppendUint64(b, uint64(id))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lon))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lat))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(zone)))
	return append(b, zone...)
}

// binSamples appends a VAPB sample frame declaring n samples and carrying
// the given ones.
func binSamples(b []byte, id int64, n uint32, smps ...store.Sample) []byte {
	b = append(b, ingestFrameSamples)
	b = binary.LittleEndian.AppendUint64(b, uint64(id))
	b = binary.LittleEndian.AppendUint32(b, n)
	for _, s := range smps {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.TS))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Value))
	}
	return b
}

// FuzzIngestBody posts any body, binary or NDJSON, to /api/ingest on an
// in-memory store. The answer must be 200, 400 or 413: a 500 or a panic is
// a finding. After every input the catalog's published view must agree
// with its registry: each registered meter is found by the point box of
// its own location and lies inside the catalog's bounds.
func FuzzIngestBody(f *testing.F) {
	valid := binMeter([]byte("VAPB"), 7, 12.5, 55.6, "industrial")
	valid = binMeter(valid, 8, 12.6, 55.7, "")
	valid = binSamples(valid, 7, 3, store.Sample{TS: 60, Value: 1.25}, store.Sample{TS: 120, Value: math.NaN()}, store.Sample{TS: 180, Value: 3.75})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                                              // truncated sample payload
	f.Add(valid[:4+1+8+10])                                                  // truncated meter body
	f.Add(binMeter([]byte("VAPB"), 9, 12.5, 55.6, "residential")[:4+1+8+18]) // zone length, no zone
	f.Add(binMeter([]byte("VAPB"), 9, math.NaN(), 55.6, "residential"))
	f.Add(binSamples(binMeter([]byte("VAPB"), 3, 12.5, 55.6, ""), 3, ingestMaxBatch+1))
	f.Add(binSamples([]byte("VAPB"), 3, 1, store.Sample{TS: 60, Value: 1})) // unknown meter
	f.Add(binSamples(binMeter([]byte("VAPB"), 3, 12.5, 55.6, ""), 3, 2, store.Sample{TS: math.MinInt64, Value: 1}, store.Sample{TS: math.MaxInt64, Value: math.Inf(1)}))
	f.Add([]byte("VAPB\x03"))
	f.Add([]byte(`{"meter":1,"lon":12.5,"lat":55.6,"zone":"residential"}
{"meter":2,"lon":12.6,"lat":55.7}
{"meter":1,"samples":[{"ts":60,"v":1.5},{"ts":120,"v":2.5}]}

{"meter":2,"ts":60,"v":9.25}
{"meter":1,"lon":12.7,"lat":55.5}`))
	f.Add([]byte(`{"meter":1,"lon":12.5}`))
	f.Add([]byte(`{"meter":1,"lon":999,"lat":55.6}`))
	f.Add([]byte(`{"meter":1,"ts":60}`))
	f.Add([]byte(`{"meter":1,"lon":12.5,"lat":55.6}` + "\n" + `{"meter":1,"samples":[{"ts":120,"v":1},{"ts":60,"v":2}]}`))
	f.Add([]byte(`{"lon":12.5,"lat":55.6`))
	f.Fuzz(func(t *testing.T, body []byte) {
		st, err := store.Open(store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		rec := httptest.NewRecorder()
		NewServer(core.NewAnalyzer(st), nil).Routes().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/api/ingest", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		cat := st.Catalog()
		bounds := cat.Bounds()
		for _, id := range cat.IDs() {
			m, ok := cat.Get(id)
			if !ok {
				t.Fatalf("meter %d listed by IDs but not found by Get", id)
			}
			if !slices.Contains(cat.Within(geo.PointBox(m.Location)), id) {
				t.Fatalf("meter %d at %v not found by its own point box", id, m.Location)
			}
			if !bounds.Contains(m.Location) {
				t.Fatalf("meter %d at %v outside the catalog bounds %v", id, m.Location, bounds)
			}
		}
	})
}
