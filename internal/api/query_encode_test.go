package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vap/internal/core"
	"vap/internal/stream"
	"vap/internal/vql"
)

// referenceQueryBody is the /api/query success body as it was produced
// before encodeQueryResult existed: the envelope as a map[string]any
// through encoding/json. It is what the hand-written encoder is held to.
func referenceQueryBody(t testing.TB, out *core.VQLOutput, dv stream.DataVersion) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"columns":               out.Columns,
		"column_types":          out.Types,
		"rows":                  out.Rows,
		"row_count":             len(out.Rows),
		"window":                out.Window,
		"meters":                out.Meters,
		"samples":               out.Samples,
		"plan":                  out.Plan,
		"explain":               out.Explain,
		"plan_hash":             out.PlanHash,
		"selection_fingerprint": out.SelectionFingerprint,
		"data_version":          dv,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeNumbersAsText decodes a JSON document keeping every number as the
// text it was written with (json.Number), so two documents compare equal
// only if each number is the same text, not merely the same value.
func decodeNumbersAsText(t testing.TB, body []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, body)
	}
	if dec.More() {
		t.Fatalf("trailing data after the JSON document:\n%s", body)
	}
	return v
}

func result(cols []string, types []vql.ColType, rows [][]any) *core.VQLOutput {
	return &core.VQLOutput{
		Result: &vql.Result{
			Columns: cols, Types: types, Rows: rows,
			Window: [2]int64{vqlBase, vqlBase + 86400}, Meters: 4, Samples: 192,
			Plan:        "VQL plan\n  Scan: \"meters\"\t<dense>\n",
			Fingerprint: 7,
		},
		PlanHash:             math.MaxUint64,
		SelectionFingerprint: 1 << 63,
	}
}

// TestQueryResponseMatchesEncodingJSON holds encodeQueryResult to
// encoding/json over a corpus of results: decoded with numbers kept as
// text, its body and the reflective encoder's are deep-equal.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	threeCols := []string{"day", "zone", "sum(value)"}
	threeTypes := []vql.ColType{vql.TypeTime, vql.TypeString, vql.TypeFloat64}
	explain := result([]string{"plan"}, []vql.ColType{vql.TypeString}, [][]any{
		{"VQL plan"}, {"  Limit: 5"}, {"  pushdown zone = 'residential' -> catalog filter"}, {"  Limit: 5"},
	})
	explain.Explain = true
	var floats [][]any
	for i, f := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, -1e-7, 9.999999e-7, 1e-6, 1.5,
		0.30000000000000004, 123456789.125, 999999999999999868928, 1e21, -1e21, 1.7e300,
		math.MaxFloat64, -math.MaxFloat64, float64(math.MaxInt64),
	} {
		floats = append(floats, []any{int64(i), "z", f})
	}
	corpus := map[string]*core.VQLOutput{
		"zero rows":        result(threeCols, threeTypes, [][]any{}),
		"one null row":     result([]string{"count(*)", "sum(value)", "max(value)"}, []vql.ColType{vql.TypeInt64, vql.TypeFloat64, vql.TypeFloat64}, [][]any{{int64(0), nil, nil}}),
		"explain":          explain,
		"floats":           result(threeCols, threeTypes, floats),
		"integers":         result(threeCols, threeTypes, [][]any{{int64(math.MaxInt64), "a", 1.0}, {int64(math.MinInt64), "a", 2.0}, {int64(0), "b", nil}}),
		"hostile strings":  result([]string{"a\"b", "<zone>", "x\u2028y"}, threeTypes, [][]any{{int64(1), "say \"hi\"", 1.0}, {int64(2), "<script>&amp;", 2.0}, {int64(3), "line\u2028sep\u2029", 3.0}, {int64(4), "bad\xffutf8", 4.0}, {int64(5), "tab\tnl\n\\", 5.0}, {int64(6), "say \"hi\"", 6.0}, {int64(7), "", 7.0}}),
		"no columns":       result([]string{}, []vql.ColType{}, [][]any{}),
		"unforeseen cells": result(threeCols, threeTypes, [][]any{{int(3), true, []string{"x"}}}),
	}
	dv := stream.DataVersion{Global: 42, Fingerprint: math.MaxUint64}
	for name, out := range corpus {
		var got bytes.Buffer
		if err := encodeQueryResult(&got, out, dv, queryWriteTimeout); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := referenceQueryBody(t, out, dv); !reflect.DeepEqual(decodeNumbersAsText(t, got.Bytes()), decodeNumbersAsText(t, want)) {
			t.Errorf("%s: body differs from encoding/json's:\n got %s\nwant %s", name, got.Bytes(), want)
		}
		// The layout: every row on a line of its own, flush left.
		if n := strings.Count(got.String(), "\n["); n != len(out.Rows) {
			t.Errorf("%s: %d row lines for %d rows:\n%s", name, n, len(out.Rows), got.Bytes())
		}
	}

	// Rows absent altogether still encode as an array, never null.
	var got bytes.Buffer
	if err := encodeQueryResult(&got, result(threeCols, threeTypes, nil), dv, queryWriteTimeout); err != nil {
		t.Fatal(err)
	}
	if rows, ok := decodeNumbersAsText(t, got.Bytes()).(map[string]any)["rows"].([]any); !ok || len(rows) != 0 {
		t.Errorf("nil rows did not encode as []:\n%s", got.Bytes())
	}

	// A result larger than the flush threshold leaves in several writes and
	// is the same document.
	big := make([][]any, 5000)
	for i := range big {
		big[i] = []any{int64(vqlBase + int64(i)*3600), "residential", float64(i) / 7}
	}
	out := result(threeCols, threeTypes, big)
	var cw countingWriter
	if err := encodeQueryResult(&cw, out, dv, queryWriteTimeout); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 2 || cw.largest > queryFlushBytes+256 {
		t.Errorf("%d-byte body left in %d writes, the largest %d bytes; want several of about %d", cw.buf.Len(), cw.writes, cw.largest, queryFlushBytes)
	}
	if !reflect.DeepEqual(decodeNumbersAsText(t, cw.buf.Bytes()), decodeNumbersAsText(t, referenceQueryBody(t, out, dv))) {
		t.Errorf("flushed body differs from encoding/json's")
	}
}

type countingWriter struct {
	buf             bytes.Buffer
	writes, largest int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.largest = max(w.largest, len(p))
	return w.buf.Write(p)
}

// FuzzQueryRowJSON: for any float64, int64 and string cell the body is
// valid JSON and each cell decodes — numbers as text — to what
// encoding/json writes for it. Non-finite floats, which encoding/json
// refuses and the executor nulls before they get here, are null.
func FuzzQueryRowJSON(f *testing.F) {
	f.Add(math.Float64bits(0.1), int64(1496275200), "residential")
	f.Add(math.Float64bits(1e21), int64(math.MinInt64), "a\"b<c>\u2028")
	f.Add(math.Float64bits(-9.5e-7), int64(-1), "\xff\xfe")
	f.Add(math.Float64bits(math.NaN()), int64(0), "")
	f.Add(math.Float64bits(math.Inf(-1)), int64(255), "\x00\x1f\\")
	f.Fuzz(func(t *testing.T, bits uint64, i int64, s string) {
		v := math.Float64frombits(bits)
		out := result([]string{"f", "i", s}, []vql.ColType{vql.TypeFloat64, vql.TypeInt64, vql.TypeString}, [][]any{{v, i, s}, {v, i, s}})
		var body bytes.Buffer
		if err := encodeQueryResult(&body, out, stream.DataVersion{}, queryWriteTimeout); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(body.Bytes()) {
			t.Fatalf("invalid JSON:\n%s", body.Bytes())
		}
		doc := decodeNumbersAsText(t, body.Bytes()).(map[string]any)
		var want []any
		for _, cell := range out.Rows[0] {
			text, err := json.Marshal(cell)
			if err != nil { // NaN, ±Inf
				text = []byte("null")
			}
			want = append(want, decodeNumbersAsText(t, text))
		}
		for r, row := range doc["rows"].([]any) {
			if !reflect.DeepEqual(row, want) {
				t.Errorf("row %d = %v, want %v\n%s", r, row, want, body.Bytes())
			}
		}
		if col := doc["columns"].([]any)[2]; !reflect.DeepEqual(col, want[2]) {
			t.Errorf("column name = %q, want %q", col, want[2])
		}
	})
}

// parentQueryHitAllocs is what the handler allocated for the statement
// below when it encoded its response with writeJSON over a map[string]any
// (measured by this test at commit d2c7d76).
const parentQueryHitAllocs = 176

// TestQueryHandlerAllocs: a cached 30-row statement through the whole
// /api/query handler must not allocate more than it did with the
// reflective encoder — the dashboard path answers thousands of these a
// second.
func TestQueryHandlerAllocs(t *testing.T) {
	_, an, _ := newVQLTestServer(t)
	mux := NewServer(an, nil).Routes()
	q := "SELECT bucket(hourly), sum(value), count(*) FROM meters WHERE time >= " + strconv.FormatInt(vqlBase, 10) +
		" AND time < " + strconv.FormatInt(vqlBase+30*3600, 10) + " GROUP BY bucket(hourly)"
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/query", strings.NewReader(q)))
		return rec
	}
	rec := serve() // fills the cache
	var out struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK || len(out.Rows) != 30 {
		t.Fatalf("status %d, %d rows (err %v), want 200 with 30", rec.Code, len(out.Rows), err)
	}
	allocs := testing.AllocsPerRun(200, func() { serve() })
	t.Logf("cached 30-row statement: %.0f allocs per request (reflective encoder: %d)", allocs, parentQueryHitAllocs)
	if allocs > parentQueryHitAllocs {
		t.Errorf("handler allocates %.0f per cached statement, more than the %d of the encoder it replaced", allocs, parentQueryHitAllocs)
	}
}
