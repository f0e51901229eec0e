package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"vap/internal/core"
	"vap/internal/geo"
	"vap/internal/store"
)

// vqlBase is 2017-06-01 00:00:00 UTC.
const vqlBase int64 = 1496275200

// newVQLTestServer builds a deterministic four-meter store (constant
// per-meter values over 48 hourly samples) so query results are exactly
// predictable, and returns the test server plus the analyzer and store
// for cache and mutation assertions.
func newVQLTestServer(t testing.TB) (*httptest.Server, *core.Analyzer, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	meters := []store.Meter{
		{ID: 1, Location: geo.Point{Lon: 10.10, Lat: 55.60}, Zone: store.ZoneResidential},
		{ID: 2, Location: geo.Point{Lon: 10.12, Lat: 55.62}, Zone: store.ZoneResidential},
		{ID: 3, Location: geo.Point{Lon: 10.30, Lat: 55.70}, Zone: store.ZoneCommercial},
		{ID: 4, Location: geo.Point{Lon: 10.50, Lat: 55.80}, Zone: store.ZoneIndustrial},
	}
	for _, m := range meters {
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 48; h++ {
			if err := st.Append(m.ID, store.Sample{TS: vqlBase + int64(h)*3600, Value: float64(m.ID)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	an := core.NewAnalyzer(st)
	srv := httptest.NewServer(NewServer(an, nil).Routes())
	t.Cleanup(srv.Close)
	return srv, an, st
}

// postQuery POSTs one VQL statement and decodes the JSON response.
func postQuery(t testing.TB, url, query string) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": query})
	resp, err := http.Post(url+"/api/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func TestQueryEndpointGolden(t *testing.T) {
	srv, _, _ := newVQLTestServer(t)
	cases := []struct {
		name   string
		query  string
		status int
		// wantCols and wantRows assert successful responses exactly
		// (JSON numbers decode as float64).
		wantCols []string
		wantRows [][]any
		// wantErr/wantLine/wantCol assert error responses.
		wantErr  string
		wantLine float64
		wantCol  float64
		// wantPlan asserts substrings of the plan/EXPLAIN output.
		wantPlan []string
	}{
		{
			name:     "global aggregate",
			query:    "SELECT sum(value), count(*) FROM meters",
			status:   http.StatusOK,
			wantCols: []string{"sum(value)", "count(*)"},
			wantRows: [][]any{{480.0, 192.0}},
		},
		{
			name:     "bucketed occupancy with window",
			query:    "SELECT bucket(daily) AS day, mean(value) AS avg_kwh FROM meters WHERE meter IN (1, 2) AND time >= '2017-06-01' AND time < '2017-06-03' GROUP BY bucket(daily)",
			status:   http.StatusOK,
			wantCols: []string{"day", "avg_kwh"},
			wantRows: [][]any{{float64(vqlBase), 1.5}, {float64(vqlBase + 86400), 1.5}},
		},
		{
			name:     "group by meter order by total desc limit",
			query:    "SELECT meter, sum(value) AS total FROM meters GROUP BY meter ORDER BY total DESC LIMIT 2",
			status:   http.StatusOK,
			wantCols: []string{"meter", "total"},
			wantRows: [][]any{{4.0, 192.0}, {3.0, 144.0}},
		},
		{
			name:     "group by zone",
			query:    "SELECT zone, sum(value) FROM meters GROUP BY zone ORDER BY sum(value) DESC, zone",
			status:   http.StatusOK,
			wantCols: []string{"zone", "sum(value)"},
			wantRows: [][]any{{"industrial", 192.0}, {"commercial", 144.0}, {"residential", 144.0}},
		},
		{
			name:     "bbox pushdown",
			query:    "SELECT count(*) FROM meters WHERE bbox(10.0, 55.5, 10.2, 55.65)",
			status:   http.StatusOK,
			wantCols: []string{"count(*)"},
			wantRows: [][]any{{96.0}},
			wantPlan: []string{"pushdown bbox(10, 55.5, 10.2, 55.65) -> catalog spatial index"},
		},
		{
			name:   "explain",
			query:  "EXPLAIN SELECT bucket(daily), mean(value) FROM meters WHERE zone = 'residential' GROUP BY bucket(daily) ORDER BY 2 DESC LIMIT 5",
			status: http.StatusOK,
			wantPlan: []string{
				"Limit: 5",
				"Sort: mean(value) desc",
				"GroupAggregate: keys=[bucket(daily)] aggs=[mean(value)]",
				"pushdown zone = 'residential' -> catalog filter",
				"meters resolved: 2",
			},
		},
		{
			name:     "parse error carries position",
			query:    "SELECT sum(price) FROM meters",
			status:   http.StatusBadRequest,
			wantErr:  "wants the column 'value'",
			wantLine: 1, wantCol: 12,
		},
		{
			name:     "type error carries position",
			query:    "SELECT meter, sum(value) FROM meters",
			status:   http.StatusBadRequest,
			wantErr:  "not grouped on",
			wantLine: 1, wantCol: 8,
		},
		{
			name:     "multiline error position",
			query:    "SELECT sum(value)\nFROM meters\nWHERE speed = 1",
			status:   http.StatusBadRequest,
			wantErr:  "unknown predicate",
			wantLine: 3, wantCol: 7,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, out := postQuery(t, srv.URL, tc.query)
			if status != tc.status {
				t.Fatalf("status = %d, want %d (response %v)", status, tc.status, out)
			}
			if tc.wantErr != "" {
				msg, _ := out["error"].(string)
				if !strings.Contains(msg, tc.wantErr) {
					t.Errorf("error = %q, want substring %q", msg, tc.wantErr)
				}
				if out["line"] != tc.wantLine || out["col"] != tc.wantCol {
					t.Errorf("position = %v:%v, want %v:%v", out["line"], out["col"], tc.wantLine, tc.wantCol)
				}
				return
			}
			if tc.wantCols != nil {
				gotCols := toStrings(out["columns"])
				if fmt.Sprint(gotCols) != fmt.Sprint(tc.wantCols) {
					t.Errorf("columns = %v, want %v", gotCols, tc.wantCols)
				}
			}
			if tc.wantRows != nil {
				if got, want := fmt.Sprint(out["rows"]), fmt.Sprint(anyRows(tc.wantRows)); got != want {
					t.Errorf("rows = %s, want %s", got, want)
				}
			}
			for _, sub := range tc.wantPlan {
				plan, _ := out["plan"].(string)
				if !strings.Contains(plan, sub) {
					t.Errorf("plan missing %q:\n%s", sub, plan)
				}
			}
			if _, ok := out["data_version"].(map[string]any); !ok {
				t.Errorf("response missing data_version: %v", out)
			}
		})
	}
}

func toStrings(v any) []string {
	arr, _ := v.([]any)
	out := make([]string, len(arr))
	for i, x := range arr {
		out[i], _ = x.(string)
	}
	return out
}

func anyRows(rows [][]any) []any {
	out := make([]any, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

func TestQueryEndpointBadRequests(t *testing.T) {
	srv, _, _ := newVQLTestServer(t)
	// GET is rejected.
	resp, err := http.Get(srv.URL + "/api/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
	// Empty body.
	if status, _ := postQuery(t, srv.URL, ""); status != http.StatusBadRequest {
		t.Fatalf("empty query status = %d, want 400", status)
	}
	// Raw text/plain body is accepted.
	resp, err = http.Post(srv.URL+"/api/query", "text/plain",
		strings.NewReader("SELECT count(*) FROM meters"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text/plain status = %d, want 200", resp.StatusCode)
	}
	// A JSON body without an explicit JSON Content-Type (curl -d default)
	// is sniffed by its leading '{'.
	resp, err = http.Post(srv.URL+"/api/query", "application/x-www-form-urlencoded",
		strings.NewReader(`{"query": "SELECT count(*) FROM meters"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sniffed JSON status = %d, want 200", resp.StatusCode)
	}
	// Malformed JSON body.
	resp, err = http.Post(srv.URL+"/api/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d, want 400", resp.StatusCode)
	}
}

// TestParseSelectionStrict verifies the URL-parameter selection no longer
// silently ignores malformed from/to/bbox values: each malformed input is
// a 400 with a descriptive error, and date strings now work because the
// validation is shared with the VQL time-literal parser.
func TestParseSelectionStrict(t *testing.T) {
	srv, _, _ := newVQLTestServer(t)
	get := func(params string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/customers?" + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	bad := []struct {
		params  string
		wantSub string
	}{
		{"from=yesterday", "bad from parameter"},
		{"to=12:00", "bad to parameter"},
		{"to=1970-01-01", "epoch 0 is not representable"},
		{"from=0", "epoch 0 is not representable"},
		{"from=100&to=50", "empty time window"},
		{"bbox=1,2,3", "bbox wants 4"},
		{"bbox=a,2,3,4", "bad bbox component"},
		{"bbox=NaN,2,3,4", "finite"},
		{"bbox=200,0,201,1", "out of range"},
		{"bbox=3,2,1,2", "minLon <= maxLon"},
	}
	for _, tc := range bad {
		status, out := get(tc.params)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%v)", tc.params, status, out)
			continue
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, tc.wantSub) {
			t.Errorf("%s: error %q, want substring %q", tc.params, msg, tc.wantSub)
		}
	}
	// Well-formed values still work, including date strings.
	if status, _ := get("from=2017-06-01&to=2017-06-02"); status != http.StatusOK {
		t.Errorf("date-string window: status = %d, want 200", status)
	}
	if status, _ := get("from=1496275200"); status != http.StatusOK {
		t.Errorf("unix from: status = %d, want 200", status)
	}
}

// TestQueryMemoization proves the acceptance-criteria cache behavior over
// HTTP: two identical VQL queries hit the memoized result, an append to a
// meter inside the selection invalidates it, and an append to a meter
// outside the selection does not.
func TestQueryMemoization(t *testing.T) {
	srv, an, st := newVQLTestServer(t)
	const q = "SELECT meter, sum(value) FROM meters WHERE meter IN (1, 2) AND time >= 1496275200 AND time < 1496448000 GROUP BY meter"

	status, first := postQuery(t, srv.URL, q)
	if status != http.StatusOK {
		t.Fatalf("first query status = %d: %v", status, first)
	}
	s0 := an.ExecStats()
	status, second := postQuery(t, srv.URL, q)
	if status != http.StatusOK {
		t.Fatal("second query failed")
	}
	s1 := an.ExecStats()
	if s1.Hits != s0.Hits+1 || s1.Computes != s0.Computes {
		t.Fatalf("identical query did not hit cache: hits %d->%d computes %d->%d", s0.Hits, s1.Hits, s0.Computes, s1.Computes)
	}
	if fmt.Sprint(first["rows"]) != fmt.Sprint(second["rows"]) {
		t.Fatal("cached result differs from first result")
	}
	if first["selection_fingerprint"] != second["selection_fingerprint"] {
		t.Fatal("selection fingerprint moved without a mutation")
	}

	// A logically identical but textually different query shares the entry.
	status, _ = postQuery(t, srv.URL, "select meter, SUM(value) from meters where meter in (2,1) and time >= 1496275200 and time < 1496448000 group by METER;")
	if status != http.StatusOK {
		t.Fatal("canonicalized query failed")
	}
	s2 := an.ExecStats()
	if s2.Hits != s1.Hits+1 || s2.Computes != s1.Computes {
		t.Fatalf("canonically identical query missed the cache: hits %d->%d computes %d->%d", s1.Hits, s2.Hits, s1.Computes, s2.Computes)
	}

	// Append to a meter outside the selection: still a hit.
	if err := st.Append(3, store.Sample{TS: vqlBase + 48*3600, Value: 9}); err != nil {
		t.Fatal(err)
	}
	status, _ = postQuery(t, srv.URL, q)
	if status != http.StatusOK {
		t.Fatal("query after unrelated append failed")
	}
	s3 := an.ExecStats()
	if s3.Computes != s2.Computes {
		t.Fatalf("append outside the selection forced a recompute (computes %d->%d)", s2.Computes, s3.Computes)
	}

	// Append to a selected meter: fingerprint moves, result recomputes.
	if err := st.Append(1, store.Sample{TS: vqlBase + 48*3600, Value: 100}); err != nil {
		t.Fatal(err)
	}
	status, third := postQuery(t, srv.URL, q)
	if status != http.StatusOK {
		t.Fatal("query after selected append failed")
	}
	s4 := an.ExecStats()
	if s4.Computes != s3.Computes+1 {
		t.Fatalf("append inside the selection did not invalidate (computes %d->%d)", s3.Computes, s4.Computes)
	}
	if third["selection_fingerprint"] == first["selection_fingerprint"] {
		t.Fatal("selection fingerprint unchanged after appending to a selected meter")
	}
	// The appended sample lands outside the explicit window, so the rows
	// themselves are unchanged — only the version moved.
	if fmt.Sprint(third["rows"]) != fmt.Sprint(first["rows"]) {
		t.Fatalf("rows changed for out-of-window append: %v vs %v", third["rows"], first["rows"])
	}
}

// TestQueryConcurrentWithAppends runs VQL queries concurrently with
// streaming appends (run under -race in CI) and asserts cache-version
// consistency: any two responses carrying the same selection fingerprint
// must carry identical rows.
func TestQueryConcurrentWithAppends(t *testing.T) {
	srv, _, st := newVQLTestServer(t)
	const q = "SELECT meter, sum(value), count(*) FROM meters WHERE meter IN (1, 2, 3) GROUP BY meter"

	stop := make(chan struct{})
	var appender sync.WaitGroup
	// Streaming appender: meters 1 and 3 receive new samples until the
	// queriers are done.
	appender.Add(1)
	go func() {
		defer appender.Done()
		ts := vqlBase + 48*3600
		// Capped so an unthrottled writer cannot grow the scans unboundedly
		// while the queriers run.
		for i := 0; i < 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := int64(1)
			if i%2 == 1 {
				id = 3
			}
			if err := st.Append(id, store.Sample{TS: ts, Value: 1}); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			ts += 60
		}
	}()

	var queriers sync.WaitGroup
	byFingerprint := sync.Map{} // fingerprint -> rows (rendered)
	for w := 0; w < 4; w++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			for i := 0; i < 25; i++ {
				status, out := postQuery(t, srv.URL, q)
				if status != http.StatusOK {
					t.Errorf("query status = %d: %v", status, out)
					return
				}
				fp := fmt.Sprint(out["selection_fingerprint"])
				rows := fmt.Sprint(out["rows"])
				if prev, loaded := byFingerprint.LoadOrStore(fp, rows); loaded && prev != rows {
					t.Errorf("two responses with fingerprint %s disagree:\n%s\nvs\n%s", fp, prev, rows)
					return
				}
			}
		}()
	}
	queriers.Wait()
	close(stop)
	appender.Wait()
}
