package vql

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/store"
)

// base is 2017-06-01 00:00:00 UTC.
const base int64 = 1496275200

// newTestEngine builds a deterministic four-meter store: two residential
// meters in the south-west, one commercial and one industrial further
// north-east, each with 48 hourly samples of a constant value equal to its
// meter ID.
func newTestEngine(t testing.TB) *query.Engine {
	t.Helper()
	st, err := store.Open(store.Options{Shards: 4})
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
			if err := st.Append(m.ID, store.Sample{TS: base + int64(h)*3600, Value: float64(m.ID)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return query.NewEngineWorkers(st, 4)
}

// execute runs a compiled plan the way core.Analyzer.VQL does: resolve the
// meter set and the window, then ExecuteResolved.
func execute(ctx context.Context, eng *query.Engine, p *Plan) (*Result, error) {
	ids, err := ResolveScanMeters(eng, p)
	if err != nil {
		return nil, err
	}
	from, to, ok := p.ResolveWindow(eng.Store())
	return ExecuteResolved(ctx, eng, p, ids, from, to, ok)
}

func run(t *testing.T, eng *query.Engine, src string) *Result {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	res, err := execute(context.Background(), eng, p)
	if err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return res
}

func TestGlobalAggregates(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, "SELECT sum(value), mean(value), min(value), max(value), count(*) FROM meters")
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
	row := res.Rows[0]
	if got := row[0].(float64); got != 48*(1+2+3+4) {
		t.Errorf("sum = %v, want 480", got)
	}
	if got := row[1].(float64); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("mean = %v, want 2.5", got)
	}
	if row[2].(float64) != 1 || row[3].(float64) != 4 {
		t.Errorf("min/max = %v/%v, want 1/4", row[2], row[3])
	}
	if row[4].(int64) != 192 {
		t.Errorf("count = %v, want 192", row[4])
	}
	if res.Meters != 4 || res.Samples != 192 {
		t.Errorf("meters/samples = %d/%d, want 4/192", res.Meters, res.Samples)
	}
}

func TestBucketGroupBy(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, `
		SELECT bucket(daily) AS day, mean(value) AS avg_kwh, count(*)
		FROM meters
		WHERE meter IN (1, 2)
		GROUP BY bucket(daily)`)
	if want := []string{"day", "avg_kwh", "count(*)"}; strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", res.Columns, want)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 daily buckets, got %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if got := row[0].(int64); got != base+int64(i)*86400 {
			t.Errorf("row %d bucket = %d, want %d", i, got, base+int64(i)*86400)
		}
		if got := row[1].(float64); math.Abs(got-1.5) > 1e-12 {
			t.Errorf("row %d mean = %v, want 1.5", i, got)
		}
		if got := row[2].(int64); got != 48 {
			t.Errorf("row %d count = %v, want 48", i, got)
		}
	}
}

func TestGroupByMeterOrderLimit(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, `
		SELECT meter, sum(value) AS total FROM meters
		GROUP BY meter ORDER BY total DESC LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(res.Rows))
	}
	if res.Rows[0][0].(int64) != 4 || res.Rows[1][0].(int64) != 3 {
		t.Fatalf("order = %v,%v want 4,3", res.Rows[0][0], res.Rows[1][0])
	}
	if got := res.Rows[0][1].(float64); got != 48*4 {
		t.Errorf("top total = %v, want 192", got)
	}
}

func TestGroupByZone(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, `SELECT zone, sum(value) FROM meters GROUP BY zone ORDER BY zone`)
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 zones, got %d", len(res.Rows))
	}
	want := map[string]float64{"commercial": 144, "industrial": 192, "residential": 144}
	for _, row := range res.Rows {
		z := row[0].(string)
		if got := row[1].(float64); got != want[z] {
			t.Errorf("zone %s sum = %v, want %v", z, got, want[z])
		}
	}
	// Default ordering is the key tuple ascending, so ORDER BY zone matches.
	if res.Rows[0][0].(string) != "commercial" {
		t.Errorf("first zone = %v, want commercial", res.Rows[0][0])
	}
}

func TestBBoxAndZonePushdown(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, `SELECT count(*) FROM meters WHERE bbox(10.0, 55.5, 10.2, 55.65)`)
	if got := res.Rows[0][0].(int64); got != 96 {
		t.Fatalf("bbox count = %v, want 96 (meters 1,2)", got)
	}
	res = run(t, eng, `SELECT count(*) FROM meters WHERE zone = 'industrial'`)
	if got := res.Rows[0][0].(int64); got != 48 {
		t.Fatalf("zone count = %v, want 48", got)
	}
	res = run(t, eng, `SELECT count(*) FROM meters WHERE bbox(10.0, 55.5, 10.2, 55.65) AND zone = 'commercial'`)
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 0 {
		t.Fatalf("disjoint bbox+zone = %v, want one zero-count row", res.Rows)
	}
}

func TestTimePredicates(t *testing.T) {
	eng := newTestEngine(t)
	// First day only, via date strings.
	res := run(t, eng, `SELECT count(*) FROM meters WHERE meter = 1 AND time >= '2017-06-01' AND time < '2017-06-02'`)
	if got := res.Rows[0][0].(int64); got != 24 {
		t.Fatalf("day-1 count = %v, want 24", got)
	}
	// BETWEEN is inclusive on both ends.
	res = run(t, eng, `SELECT count(*) FROM meters WHERE meter = 1 AND time BETWEEN 1496275200 AND 1496278800`)
	if got := res.Rows[0][0].(int64); got != 2 {
		t.Fatalf("between count = %v, want 2", got)
	}
	// One-sided window: everything from the second day on.
	res = run(t, eng, `SELECT count(*) FROM meters WHERE meter = 1 AND time >= '2017-06-02'`)
	if got := res.Rows[0][0].(int64); got != 24 {
		t.Fatalf("open-ended count = %v, want 24", got)
	}
	// One-sided upper bound.
	res = run(t, eng, `SELECT count(*) FROM meters WHERE meter = 1 AND time < '2017-06-02'`)
	if got := res.Rows[0][0].(int64); got != 24 {
		t.Fatalf("open-start count = %v, want 24", got)
	}
	// > and <= shift by one second.
	res = run(t, eng, `SELECT count(*) FROM meters WHERE meter = 1 AND time > 1496275200 AND time <= 1496282400`)
	if got := res.Rows[0][0].(int64); got != 2 {
		t.Fatalf("exclusive-start count = %v, want 2", got)
	}
}

func TestMeterInDuplicatesAndUnknownIDs(t *testing.T) {
	eng := newTestEngine(t)
	// Duplicate ids in IN must not double-count.
	res := run(t, eng, `SELECT count(*), sum(value) FROM meters WHERE meter IN (1, 1)`)
	if res.Rows[0][0].(int64) != 48 || res.Rows[0][1].(float64) != 48 {
		t.Fatalf("IN (1,1) = %v, want count 48 sum 48", res.Rows[0])
	}
	// An unregistered id filters to nothing instead of erroring the scan.
	res = run(t, eng, `SELECT count(*) FROM meters WHERE meter = 999`)
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("unknown meter count = %v, want 0", res.Rows[0][0])
	}
	res = run(t, eng, `SELECT meter, count(*) FROM meters WHERE meter IN (1, 999) GROUP BY meter`)
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 1 || res.Rows[0][1].(int64) != 48 {
		t.Fatalf("IN (1,999) rows = %v, want meter 1 with 48 samples", res.Rows)
	}
	if res.Meters != 1 {
		t.Fatalf("meters scanned = %d, want 1", res.Meters)
	}
}

func TestEmptySelectionYieldsZeroRows(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, `SELECT meter, sum(value) FROM meters WHERE zone = 'mixed' GROUP BY meter`)
	if len(res.Rows) != 0 {
		t.Fatalf("want 0 rows for empty selection, got %d", len(res.Rows))
	}
	// Window entirely after the data: zero groups as well.
	res = run(t, eng, `SELECT meter, sum(value) FROM meters WHERE time >= '2020-01-01' GROUP BY meter`)
	if len(res.Rows) != 0 {
		t.Fatalf("want 0 rows for out-of-data window, got %d", len(res.Rows))
	}
}

func TestMultiKeyGrouping(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, `
		SELECT bucket(daily), zone, sum(value) FROM meters
		GROUP BY bucket(daily), zone`)
	if len(res.Rows) != 6 { // 2 days x 3 zones
		t.Fatalf("want 6 rows, got %d", len(res.Rows))
	}
	// Rows are sorted by (bucket, zone).
	if res.Rows[0][0].(int64) != base || res.Rows[0][1].(string) != "commercial" {
		t.Fatalf("first row = %v", res.Rows[0])
	}
}

func parseErr(t *testing.T, src string) *Error {
	t.Helper()
	q, err := Parse(src)
	if err == nil {
		_, err = Compile(q)
	}
	if err == nil {
		t.Fatalf("want error for %q", src)
	}
	var ve *Error
	if !errors.As(err, &ve) {
		t.Fatalf("error for %q is %T, want *vql.Error", src, err)
	}
	return ve
}

func TestErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		src        string
		wantSubstr string
		line, col  int
	}{
		{"SELEC sum(value) FROM meters", "expected SELECT", 1, 1},
		{"SELECT sum(price) FROM meters", "wants the column 'value'", 1, 12},
		{"SELECT sum(value) FROM sensors", "unknown source", 1, 24},
		{"SELECT sum(value) FROM meters WHERE speed = 3", "unknown predicate", 1, 37},
		{"SELECT sum(value) FROM meters WHERE zone = 'x' OR zone = 'y'", "OR is not supported", 1, 48},
		{"SELECT sum(value) FROM meters LIMIT -1", "non-negative", 1, 37},
		{"SELECT meter FROM meters", "not grouped on", 1, 8},
		{"SELECT bucket(fortnightly), sum(value) FROM meters GROUP BY bucket(fortnightly)", "unknown granularity", 1, 15},
		{"SELECT sum(value) FROM meters ORDER BY total", "does not match any output column", 1, 40},
		{"SELECT sum(value) FROM meters ORDER BY 3", "out of range", 1, 40},
		{"SELECT sum(value) FROM meters WHERE time >= 10 AND time < 5", "empty time window", 1, 37},
		{"SELECT sum(value) FROM meters WHERE time > 9223372036854775807", "overflows", 1, 37},
		{"SELECT sum(value) FROM meters WHERE time <= 9223372036854775807", "overflows", 1, 37},
		{"SELECT sum(value) FROM meters WHERE time BETWEEN 0 AND 9223372036854775807", "overflows", 1, 37},
		{"SELECT sum(value) FROM meters WHERE bbox(1, 2, 3)", "expected ','", 1, 49},
		{"SELECT sum(value) FROM meters WHERE bbox(200, 0, 201, 1)", "out of range", 1, 37},
		{"SELECT sum(value) FROM meters WHERE time >= 'June 1'", "bad time", 1, 45},
		{"SELECT sum(value) FROM meters WHERE zone = 'a' AND zone = 'b'", "duplicate zone", 1, 52},
		{"SELECT sum(value) FROM meters WHERE meter = 1 AND meter = 2", "duplicate meter", 1, 51},
		{"SELECT sum(value), sum(value) FROM meters", "duplicate output column", 1, 20},
		{"SELECT sum(value) FROM meters; SELECT 1", "unexpected", 1, 32},
		{"SELECT sum(value FROM meters", "expected ')'", 1, 18},
		{"SELECT sum(value) FROM meters WHERE zone = 'unterminated", "unterminated string", 1, 44},
		{"SELECT sum(value) FROM meters GROUP BY speed", "unknown group key", 1, 40},
	}
	for _, tc := range cases {
		ve := parseErr(t, tc.src)
		if !strings.Contains(ve.Msg, tc.wantSubstr) {
			t.Errorf("%q: error %q, want substring %q", tc.src, ve.Msg, tc.wantSubstr)
		}
		if ve.Pos.Line != tc.line || ve.Pos.Col != tc.col {
			t.Errorf("%q: position %v, want %d:%d (msg %q)", tc.src, ve.Pos, tc.line, tc.col, ve.Msg)
		}
	}
}

func TestMultilinePositions(t *testing.T) {
	ve := parseErr(t, "SELECT sum(value)\nFROM meters\nWHERE speed = 1")
	if ve.Pos.Line != 3 || ve.Pos.Col != 7 {
		t.Fatalf("position = %v, want 3:7", ve.Pos)
	}
}

func TestCanonicalFingerprint(t *testing.T) {
	a, err := Parse("select Sum(value) from meters where Meter in (2, 1) and time >= 10 group by METER order by 1 limit 5")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("SELECT sum( value )  FROM meters WHERE meter IN (1,2) AND time > 9\nGROUP BY meter ORDER BY sum(value) ASC LIMIT 5;")
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Fingerprint() != pb.Fingerprint() {
		t.Fatalf("equivalent plans fingerprint differently:\n  %s\n  %s", pa.canonical, pb.canonical)
	}
	c, _ := Parse("SELECT sum(value) FROM meters WHERE meter IN (1,2) AND time >= 10 GROUP BY meter ORDER BY 1 DESC LIMIT 5")
	pc, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Fingerprint() == pc.Fingerprint() {
		t.Fatal("DESC variant should fingerprint differently")
	}
}

func TestExplain(t *testing.T) {
	eng := newTestEngine(t)
	q, err := Parse(`EXPLAIN SELECT bucket(daily), mean(value) FROM meters
		WHERE bbox(10.0, 55.5, 10.2, 55.65) AND zone = 'residential' AND time >= 1496275200
		GROUP BY bucket(daily) ORDER BY mean(value) DESC LIMIT 7`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Explain {
		t.Fatal("EXPLAIN flag not set")
	}
	out := ExplainString(p, eng)
	for _, want := range []string{
		"Limit: 7",
		"Sort: mean(value) desc",
		"GroupAggregate: keys=[bucket(daily)] aggs=[mean(value)]",
		"Scan: meters",
		"pushdown bbox(10, 55.5, 10.2, 55.65) -> catalog spatial index",
		"pushdown zone = 'residential' -> catalog filter",
		"pushdown time [1496275200, extent) -> block min/max pruned iterator",
		"meters resolved: 2",
		"cost: est ",
		"grouping: dense bucket array (2 buckets, boundaries precomputed)",
		"fanout: 1 workers via internal/exec, 1 chunks, cancellable",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// A window of more buckets than one request may enumerate still
	// explains, and the plan says the scan would be refused.
	wide := compilePlan(t, `EXPLAIN SELECT bucket(hourly), count(*) FROM meters
		WHERE time >= 1 AND time < 4000000000 GROUP BY bucket(hourly)`)
	if out := ExplainString(wide, eng); !strings.Contains(out, "grouping: refused (query: window too wide: [1, 4000000000) spans more than 1048576 hourly buckets)") {
		t.Errorf("explain of a too-wide window does not name the refusal:\n%s", out)
	}
	// Static rendering without an engine must not panic.
	static := ExplainString(p, nil)
	if strings.Contains(static, "meters resolved") {
		t.Error("static explain should not resolve meters")
	}
}

func TestExplainFullScan(t *testing.T) {
	q, _ := Parse("SELECT count(*) FROM meters")
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	out := ExplainString(p, nil)
	if !strings.Contains(out, "full scan") || !strings.Contains(out, "Aggregate: [count(*)] (single group)") {
		t.Errorf("unexpected full-scan explain:\n%s", out)
	}
}

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"1496275200", 1496275200},
		{"-5", -5},
		{"2017-06-01", 1496275200},
		{"2017-06-01 01:00", 1496278800},
		{"2017-06-01 01:00:00", 1496278800},
		{"2017-06-01T01:00:00", 1496278800},
		{"2017-06-01T01:00:00Z", 1496278800},
		{"2017-06-01T03:00:00+02:00", 1496278800},
	}
	for _, tc := range cases {
		got, err := ParseTime(tc.in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTime(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"", "  ", "June 1", "2017-13-40", "12:00"} {
		if _, err := ParseTime(bad); err == nil {
			t.Errorf("ParseTime(%q): want error", bad)
		}
	}
}

func TestValidBBox(t *testing.T) {
	if err := ValidBBox(10, 55, 11, 56); err != nil {
		t.Errorf("valid bbox rejected: %v", err)
	}
	for _, c := range [][4]float64{
		{math.NaN(), 0, 1, 1},
		{0, math.Inf(1), 1, 1},
		{-181, 0, 1, 1},
		{0, 0, 1, 91},
		{2, 0, 1, 1},
		{0, 2, 1, 1},
	} {
		if err := ValidBBox(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("bbox %v: want error", c)
		}
	}
}

func TestResolveWindow(t *testing.T) {
	eng := newTestEngine(t)
	st := eng.Store()
	last := base + 47*3600
	window := func(p *Plan) (int64, int64, bool) { return p.ResolveWindow(st) }
	from, to, ok := window(&Plan{})
	if !ok || from != base || to != last+1 {
		t.Fatalf("full extent = [%d,%d) ok=%v, want [%d,%d)", from, to, ok, base, last+1)
	}
	from, to, ok = window(&Plan{From: base + 100, HasFrom: true})
	if !ok || from != base+100 || to != last+1 {
		t.Fatalf("open-ended = [%d,%d) ok=%v", from, to, ok)
	}
	from, to, ok = window(&Plan{To: base + 100, HasTo: true})
	if !ok || from != base || to != base+100 {
		t.Fatalf("open-start = [%d,%d) ok=%v", from, to, ok)
	}
	if _, _, ok = window(&Plan{To: base - 100, HasTo: true}); ok {
		t.Fatal("window before data extent should not resolve")
	}
	// An explicit epoch-0 bound is a real constraint, not the 'unset'
	// sentinel: time < '1970-01-01' over positive-timestamp data is empty.
	if _, _, ok = window(&Plan{To: 0, HasTo: true}); ok {
		t.Fatal("epoch-0 upper bound over 2017 data should not resolve")
	}
	empty, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if _, _, ok = (&Plan{}).ResolveWindow(empty); ok {
		t.Fatal("empty store should not resolve a window")
	}
}

func TestEpochZeroTimeBounds(t *testing.T) {
	eng := newTestEngine(t)
	// time < epoch over 2017 data: zero samples, not a full scan.
	res := run(t, eng, `SELECT count(*) FROM meters WHERE time < '1970-01-01'`)
	if got := res.Rows[0][0].(int64); got != 0 {
		t.Fatalf("pre-epoch count = %v, want 0", got)
	}
	// time >= 0 is an explicit constraint that happens to include all
	// positive-timestamp data.
	res = run(t, eng, `SELECT count(*) FROM meters WHERE time >= 0`)
	if got := res.Rows[0][0].(int64); got != 192 {
		t.Fatalf("time >= 0 count = %v, want 192", got)
	}
	// The epoch-0 bound enters the canonical plan, so it cannot share a
	// cache entry with the unconstrained query.
	a, _ := Parse("SELECT count(*) FROM meters WHERE time >= 0")
	b, _ := Parse("SELECT count(*) FROM meters")
	pa, err := Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Fingerprint() == pb.Fingerprint() {
		t.Fatal("explicit time >= 0 shares a plan fingerprint with the unconstrained query")
	}

	// Pre-epoch readings: an unbucketed plan folds into the one bucket that
	// nominally starts at 0, so its first sample sits before the axis — the
	// kernel's first-bucket search must land on bucket 0, not before it.
	old, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.PutMeter(store.Meter{ID: 1, Location: geo.Point{Lon: 10.1, Lat: 55.6}, Zone: store.ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int64{-7200, -3600, 3600} {
		if err := old.Append(1, store.Sample{TS: at, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	oldEng := query.NewEngineWorkers(old, 1)
	if got := run(t, oldEng, `SELECT count(*) FROM meters`).Rows[0][0].(int64); got != 3 {
		t.Fatalf("count over pre-epoch data = %v, want 3", got)
	}
	if got := run(t, oldEng, `SELECT count(*) FROM meters WHERE time < 0`).Rows[0][0].(int64); got != 2 {
		t.Fatalf("pre-epoch count = %v, want 2", got)
	}
}

func TestCountValueAndAvgAlias(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, "SELECT count(value), avg(value) FROM meters WHERE meter = 2")
	if res.Rows[0][0].(int64) != 48 {
		t.Errorf("count(value) = %v, want 48", res.Rows[0][0])
	}
	if res.Rows[0][1].(float64) != 2 {
		t.Errorf("avg = %v, want 2", res.Rows[0][1])
	}
	if res.Columns[1] != "mean(value)" {
		t.Errorf("avg canonical name = %q, want mean(value)", res.Columns[1])
	}
}

func TestOrderByMultipleTerms(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, `
		SELECT zone, meter, sum(value) FROM meters
		GROUP BY zone, meter ORDER BY zone ASC, sum(value) DESC`)
	if len(res.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(res.Rows))
	}
	// residential rows last, ordered 2 before 1 by sum desc.
	if res.Rows[2][1].(int64) != 2 || res.Rows[3][1].(int64) != 1 {
		t.Fatalf("residential order = %v, %v, want meters 2 then 1", res.Rows[2], res.Rows[3])
	}
}

func TestContextCancellation(t *testing.T) {
	eng := newTestEngine(t)
	q, err := Parse("SELECT sum(value) FROM meters GROUP BY meter, zone ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := execute(ctx, eng, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute = %v, want context.Canceled", err)
	}
}

func TestLexerCommentsAndSemicolon(t *testing.T) {
	eng := newTestEngine(t)
	res := run(t, eng, "-- a comment\nSELECT count(*) FROM meters; -- trailing")
	if res.Rows[0][0].(int64) != 192 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}
