package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/exec"
	"vap/internal/flow"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

// TestWriteAnalysisErrTaxonomy pins the status of every kind of error the
// typical-pattern, flow-map and density handlers can be handed: the
// request's own faults stay 400, a dead context is a 504 and anything else
// a 500 — with a worker panic's stack in the log exactly once and not in
// the body.
func TestWriteAnalysisErrTaxonomy(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	defer log.SetOutput(prev)

	pe := &exec.PanicError{Value: "index out of range [96]", Stack: []byte("goroutine 9 [running]:\nvap/internal/kde.(*Field).stampRows")}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"same bucket", fmt.Errorf("core: T1 and T2 fall in the same daily bucket: %w", core.ErrSameBucket), 400},
		{"no meters", fmt.Errorf("resolve: %w", query.ErrNoMeters), 400},
		{"window too wide", fmt.Errorf("%w: [0, 4000000000) spans more than 1048576 hourly buckets", query.ErrWindowTooWide), 400},
		{"empty window", fmt.Errorf("%w: time window [1600000000, 1500000000) is empty", query.ErrInput), 400},
		{"unknown meter", fmt.Errorf("%w: 999999", store.ErrUnknownMeter), 400},
		{"kde input", kde.ErrInput, 400},
		{"flow input", flow.ErrInput, 400},
		{"reduce input", fmt.Errorf("%w: unknown method %q", reduce.ErrInput, "umap"), 400},
		{"deadline", fmt.Errorf("scan: %w", context.DeadlineExceeded), 504},
		{"cancelled", context.Canceled, 504},
		{"worker panic", fmt.Errorf("kde: %w", pe), 500},
		{"anything else", errors.New("kde: field geometry mismatch"), 500},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeAnalysisErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		body := rec.Body.String()
		if !strings.Contains(body, `"error"`) || strings.Contains(body, "goroutine") {
			t.Errorf("%s: body %q, want a JSON error without a stack", tc.name, body)
		}
	}
	if got := logged.String(); strings.Count(got, "stampRows") != 1 || !strings.Contains(got, "index out of range [96]") {
		t.Errorf("log = %q, want the panic value and its stack once", got)
	}
}

// TestFlowAndMapErrorStatuses drives the analysis handlers that used to
// answer every failure with 400: a request that cannot be right still gets
// 400, one whose context is dead — the client's, or the server's own
// -handler-timeout — gets 504.
func TestFlowAndMapErrorStatuses(t *testing.T) {
	an, ds := newTestAnalyzer(t)
	mux := NewServer(an, nil).Routes()
	impatient := NewServerWith(an, nil, Config{HandlerTimeout: time.Nanosecond}).Routes()
	noon := ds.Start.Unix() + 5*86400 + 12*3600
	paths := map[string]string{
		"flow":     fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600),
		"shift":    fmt.Sprintf("/view/map.svg?mode=shift&t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600),
		"heat":     fmt.Sprintf("/view/map.svg?mode=heat&from=%d&to=%d", noon, noon+4*3600),
		"reduce":   "/api/reduce?method=mds",
		"pca":      "/api/reduce?method=pca",
		"patterns": "/api/patterns?method=mds",
		"scatter":  "/view/scatter.svg?method=mds",
		"series":   "/view/series.svg?granularity=daily",
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// A box over open sea: the selection resolves to no meters.
	const nowhere = "&bbox=-40,-40,-39,-39"
	type probe struct {
		what string
		mux  http.Handler
		ctx  context.Context
		path string
		want int
	}
	for name, p := range paths {
		cases := []probe{
			{"handler timeout", impatient, context.Background(), p, 504},
			{"ok", mux, context.Background(), p, 200},
			{"expired", mux, expired, p, 504},
			{"cancelled", mux, cancelled, p, 504},
			{"no meters", mux, context.Background(), p + nowhere, 400},
		}
		switch name {
		case "flow", "shift":
			same := strings.Replace(p, "granularity=4hourly", "granularity=monthly", 1)
			cases = append(cases, probe{"same bucket", mux, context.Background(), same, 400})
		case "reduce", "patterns", "scatter":
			cases = append(cases,
				probe{"unknown method", mux, context.Background(), strings.Replace(p, "method=mds", "method=umap", 1), 400},
				probe{"one point", mux, context.Background(), p + "&ids=1", 400},
				probe{"bad selection", mux, context.Background(), p + "&bbox=1,2,3", 400},
				probe{"window too wide", mux, context.Background(), p + "&granularity=hourly&from=1&to=4000000000", 400})
		case "series":
			wide := strings.Replace(p, "granularity=daily", "granularity=hourly&from=1&to=4000000000", 1)
			cases = append(cases, probe{"window too wide", mux, context.Background(), wide, 400})
		}
		for _, tc := range cases {
			rec := httptest.NewRecorder()
			tc.mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.path, nil).WithContext(tc.ctx))
			if rec.Code != tc.want {
				t.Errorf("%s, %s: status %d, want %d (%s)", name, tc.what, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
			}
		}
	}

	// The window rule and the ids rule are the VQL door's: an absent from or
	// to is the data's own edge, an id list is a filter over the catalog.
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	first, last, _ := an.Store().TimeBounds()
	day3 := ds.Start.Unix() + 3*86400
	paths["api series"] = "/api/series?id=1&granularity=daily"
	for _, name := range []string{"reduce", "patterns", "scatter", "series", "api series"} {
		if code, body := get(fmt.Sprintf("%s&from=%d", paths[name], day3)); code != 200 {
			t.Errorf("%s, from only: status %d, want 200 (%s)", name, code, strings.TrimSpace(body))
		}
		if code, body := get(fmt.Sprintf("%s&from=%d", paths[name], last+86400)); code != 400 {
			t.Errorf("%s, from past the last sample: status %d, want 400 (%s)", name, code, strings.TrimSpace(body))
		}
	}
	var view struct {
		FeatDim int `json:"feature_dim"`
	}
	axis, _ := query.BucketAxis(query.GranDaily, first, day3)
	days := len(axis)
	code, body := get(fmt.Sprintf("%s&to=%d", paths["reduce"], day3))
	if err := json.Unmarshal([]byte(body), &view); code != 200 || err != nil || view.FeatDim != days {
		t.Errorf("reduce, to only: status %d, feature_dim %d (%v), want the data's %d daily buckets before to", code, view.FeatDim, err, days)
	}
	for _, name := range []string{"reduce", "flow", "series"} {
		code, known := get(paths[name] + "&ids=1,2,3")
		if code != 200 {
			t.Fatalf("%s, three known ids: status %d (%s)", name, code, strings.TrimSpace(known))
		}
		if code, body := get(paths[name] + "&ids=1,2,3,999999"); code != 200 || body != known {
			t.Errorf("%s, three known ids and an unknown one: status %d, want 200 and the answer over the three (%s)", name, code, strings.TrimSpace(body))
		}
		if code, body := get(paths[name] + "&ids=999999"); code != 400 || !strings.Contains(body, query.ErrNoMeters.Error()) {
			t.Errorf("%s, no known id: status %d, want 400 ErrNoMeters (%s)", name, code, strings.TrimSpace(body))
		}
	}
	for what, path := range map[string]string{
		"api series, unknown meter":     "/api/series?id=999999",
		"api series, unknown aggregate": paths["api series"] + "&agg=median",
		"flow, quantile out of range":   paths["flow"] + "&quantile=2",
	} {
		if code, body := get(path); code != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", what, code, strings.TrimSpace(body))
		}
	}
	// A malformed numeric parameter, or a float that is not finite, is a
	// 400 that names it, never its default read in its place.
	for _, c := range []struct{ name, param, value string }{
		{"flow", "cols", "abc"}, {"flow", "quantile", "abc"}, {"shift", "quantile", "abc"},
		{"reduce", "seed", "abc"}, {"patterns", "bx0", "abc"}, {"scatter", "bx0", "abc"},
		{"scatter", "w", "abc"}, {"heat", "w", "abc"}, {"series", "w", "abc"},
		{"patterns", "bx0", "NaN"}, {"patterns", "by1", "Inf"}, {"heat", "quantile", "NaN"},
		// Out of range, where a default used to be read in its place.
		{"flow", "cols", "-3"}, {"flow", "rows", "0"}, {"flow", "quantile", "-1"}, {"flow", "quantile", "2"},
		{"shift", "w", "-5"}, {"heat", "w", "-5"}, {"heat", "h", "0"}, {"heat", "quantile", "7"},
		{"series", "h", "0"}, {"reduce", "profile", "weekly"}, {"scatter", "profile", "weekly"},
	} {
		code, body := get(paths[c.name] + "&" + c.param + "=" + c.value)
		if code != 400 || !strings.Contains(body, "bad "+c.param+" parameter") {
			t.Errorf("%s, %s=%s: status %d, want 400 naming %s (%s)", c.name, c.param, c.value, code, c.param, strings.TrimSpace(body))
		}
	}
	// A kernel or OD mode the owning package does not know is a 400 naming
	// it, not an empty flow map; and a parameter a route does not read is
	// no reason to refuse it.
	for what, c := range map[string]struct{ path, param string }{
		"flow, kernel=bogus": {paths["flow"] + "&kernel=bogus", "kernel"},
		"flow, od=bogus":     {paths["flow"] + "&od=bogus", "od"},
		"shift, od=bogus":    {paths["shift"] + "&od=bogus", "od"},
	} {
		if code, body := get(c.path); code != 400 || !strings.Contains(body, c.param) {
			t.Errorf("%s: status %d, want 400 naming %s (%s)", what, code, c.param, strings.TrimSpace(body))
		}
	}
	if code, body := get(paths["api series"] + "&seed=abc"); code != 200 {
		t.Errorf("api series, seed=abc: status %d, want 200: /api/series reads no seed (%s)", code, strings.TrimSpace(body))
	}

	// PCA over a yearly profile of a window inside one calendar year has
	// one feature column: its second axis is 0, not an index panic.
	yearly := fmt.Sprintf("/api/reduce?method=pca&granularity=yearly&from=%d&to=%d", ds.Start.Unix(), ds.Start.Unix()+20*86400)
	if code, body := get(yearly); code != 200 {
		t.Errorf("pca, yearly inside one year: status %d, want 200 (%s)", code, strings.TrimSpace(body))
	}

	// t1 and t2 take the literals from and to take, through the same
	// parser: a date literal is a bound, a malformed value a 400 that names
	// it, an absent one a 400 on both flow endpoints.
	day5 := ds.Start.AddDate(0, 0, 5)
	anchors := fmt.Sprintf("t1=%s&t2=%s&granularity=4hourly",
		day5.Add(12*time.Hour).Format(time.RFC3339), day5.Add(20*time.Hour).Format("2006-01-02T15:04:05"))
	for what, path := range map[string]string{
		"heat, date literals":  fmt.Sprintf("/view/map.svg?mode=heat&from=%s&to=%s", day5.Format("2006-01-02"), day5.AddDate(0, 0, 1).Format("2006-01-02")),
		"flow, date literals":  "/api/flow?" + anchors,
		"shift, date literals": "/view/map.svg?mode=shift&" + anchors,
	} {
		if code, body := get(path); code != 200 {
			t.Errorf("%s: status %d, want 200 (%s)", what, code, strings.TrimSpace(body))
		}
	}
	for _, door := range []string{"/api/flow?", "/view/map.svg?mode=shift&"} {
		if code, body := get(fmt.Sprintf("%st1=abc&t2=%d", door, noon)); code != 400 || !strings.Contains(body, "bad t1 parameter") {
			t.Errorf("%s t1=abc: status %d, want 400 naming t1 (%s)", door, code, strings.TrimSpace(body))
		}
		if code, body := get(fmt.Sprintf("%st1=%d", door, noon)); code != 400 || !strings.Contains(body, "t1 and t2 parameters required") {
			t.Errorf("%s without t2: status %d, want 400 saying t2 is required (%s)", door, code, strings.TrimSpace(body))
		}
	}
}

// TestShiftMapSharesFlowCacheEntry is the regression test for the flow map
// being computed twice: /api/flow asks for an explicit 96x96 grid and
// /view/map.svg?mode=shift leaves the grid unset, which kde defaults to
// the same 96x96 — one flow map, so the second request must be a hit.
func TestShiftMapSharesFlowCacheEntry(t *testing.T) {
	an, ds := newTestAnalyzer(t)
	mux := NewServer(an, nil).Routes()
	noon := ds.Start.Unix() + 5*86400 + 12*3600
	get := func(path string) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	get(fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=4hourly&cols=96&rows=96", noon, noon+8*3600))
	before := an.ExecStats()
	get(fmt.Sprintf("/view/map.svg?mode=shift&t1=%d&t2=%d&granularity=4hourly", noon, noon+8*3600))
	after := an.ExecStats()
	if after.Computes != before.Computes || after.Hits != before.Hits+1 {
		t.Errorf("map.svg?mode=shift after the matching /api/flow: computes %d -> %d, hits %d -> %d; want no compute and one hit",
			before.Computes, after.Computes, before.Hits, after.Hits)
	}
}

// TestHeatMapAbsentBoundsAreDataEdges: an absent from or to on the heat map
// is the data's own edge, as on every other view, so the bare request draws
// the same map as one spelling the edges out, and the two share one cache
// entry.
func TestHeatMapAbsentBoundsAreDataEdges(t *testing.T) {
	an, _ := newTestAnalyzer(t)
	mux := NewServer(an, nil).Routes()
	first, last, _ := an.Store().TimeBounds()
	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	bare := get("/view/map.svg?mode=heat")
	before := an.ExecStats()
	edges := get(fmt.Sprintf("/view/map.svg?mode=heat&from=%d&to=%d", first, last+1))
	after := an.ExecStats()
	if edges != bare {
		t.Error("the heat map with explicit data-edge bounds differs from the one without bounds")
	}
	if after.Computes != before.Computes || after.Hits != before.Hits+1 {
		t.Errorf("explicit edges after the bare request: computes %d -> %d, hits %d -> %d; want no compute and one hit",
			before.Computes, after.Computes, before.Hits, after.Hits)
	}
}
