package api

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/govern"
	"vap/internal/query"
	"vap/internal/store"
	"vap/internal/vql"
)

// viewRoutes lists every GET route with the query parameters it reads. It
// is the test's own copy of what the handlers read, kept apart from them,
// so a handler that refuses a parameter its route does not read, or reads
// one this list lacks, shows in FuzzViewRequest.
var viewRoutes = func() []struct {
	path   string
	params []string
} {
	sel := []string{"bbox", "zone", "ids", "from", "to"}
	typical := append(slices.Clone(sel), "method", "metric", "granularity", "seed", "profile")
	brush := []string{"bx0", "by0", "bx1", "by1"}
	with := func(base []string, more ...string) []string { return append(slices.Clone(base), more...) }
	return []struct {
		path   string
		params []string
	}{
		{"/api/health", nil},
		{"/api/stats", nil},
		{"/api/exec", nil},
		{"/", nil},
		{"/api/customers", sel},
		{"/api/stats/series", sel},
		{"/api/series", with(sel, "id", "granularity", "agg")},
		{"/api/reduce", typical},
		{"/api/patterns", with(typical, brush...)},
		{"/view/scatter.svg", with(with(typical, brush...), "w", "h")},
		{"/api/flow", with(sel, "granularity", "t1", "t2", "quantile", "cols", "rows", "kernel", "od")},
		{"/view/map.svg", with(sel, "mode", "w", "h", "granularity", "t1", "t2", "quantile", "od")},
		{"/view/series.svg", with(sel, "granularity", "w", "h")},
	}
}()

// viewFuzzEnv is the store the generated requests run against, and what
// the generator needs to know of it.
type viewFuzzEnv struct {
	mux   http.Handler
	start int64      // first sample
	days  int        // of data
	box   [4]float64 // the catalog's bounds
}

func newViewFuzzEnv(tb testing.TB) *viewFuzzEnv {
	tb.Helper()
	const days = 30
	ds := gen.Generate(gen.Config{
		Seed: 3,
		Days: days,
		Counts: map[gen.Pattern]int{
			gen.PatternBimodal:      8,
			gen.PatternEnergySaving: 8,
			gen.PatternConstantHigh: 8,
			gen.PatternEarlyBird:    8,
		},
	})
	st, err := store.Open(store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if err := ds.LoadInto(st); err != nil {
		tb.Fatal(err)
	}
	// A small memory budget refuses a huge grid or window before it is
	// built, and a query deadline bounds a slow one: both are the
	// governor's answers (422, 504), never a 500.
	gov := govern.New(govern.Config{MemBudget: 32 << 20, QueryDeadline: 20 * time.Second})
	an := core.NewAnalyzerOpts(st, core.Options{Workers: 2, CacheEntries: 4096, Gov: gov})
	b := st.Catalog().Bounds()
	return &viewFuzzEnv{
		mux:   NewServer(an, nil).Routes(),
		start: ds.Start.Unix(),
		days:  days,
		box:   [4]float64{b.Min.Lon, b.Min.Lat, b.Max.Lon, b.Max.Lat},
	}
}

// values lists what parameter key may be: values the route accepts, and
// values of the wrong kind or out of range that it must refuse.
func (e *viewFuzzEnv) values(rng *rand.Rand, key string) (good, bad []string) {
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', 6, 64) }
	switch key {
	case "bbox":
		x0, y0, x1, y1 := e.box[0], e.box[1], e.box[2], e.box[3]
		mx, my := (x0+x1)/2, (y0+y1)/2
		return []string{
				fmt.Sprintf("%s,%s,%s,%s", num(x0-0.01), num(y0-0.01), num(x1+0.01), num(y1+0.01)),
				fmt.Sprintf("%s,%s,%s,%s", num(x0), num(y0), num(mx), num(my)),
				fmt.Sprintf("%s,%s,%s,%s", num(mx), num(my), num(x1), num(y1)),
				"-40,-40,-39,-39",
			},
			[]string{"1,2,3", "a,2,3,4", "NaN,0,1,1", "3,2,1,2", "200,0,201,1"}
	case "zone":
		return []string{"residential", "commercial", "industrial", "mixed", "bogus"}, nil
	case "ids":
		ids := make([]string, 2+rng.Intn(8))
		for i := range ids {
			ids[i] = strconv.Itoa(1 + rng.Intn(34))
		}
		return []string{strings.Join(ids, ","), "999999", "5"}, []string{"x", "1,,2", "1.5"}
	case "from", "to", "t1", "t2":
		// from falls in the first half of the data and to in the second,
		// so most windows are not empty.
		hours := e.days * 24
		off := rng.Intn(hours)
		switch key {
		case "from":
			off /= 2
		case "to":
			off = hours/2 + off/2
		}
		ts := time.Unix(e.start+int64(off)*3600+int64(rng.Intn(3))*1800, 0).UTC()
		good = []string{strconv.FormatInt(ts.Unix(), 10), ts.Format("2006-01-02"), ts.Format(time.RFC3339)}
		switch key {
		case "from":
			good = append(good, "-86400")
		case "to":
			good = append(good, "4000000000")
		}
		return good, []string{"0", "abc", "2018-13-01", "1e9", "1970-01-01"}
	case "id":
		return []string{"1", "2", "7", "19", "32", "-3", "999999"}, []string{"0", "abc", "1.5"}
	case "granularity":
		return []string{"hourly", "4hourly", "daily", "weekly", "monthly", "quarterly", "yearly"}, []string{"bogus", "Daily"}
	case "agg":
		return []string{"sum", "mean", "min", "max", "median"}, nil
	case "method":
		// t-SNE is the slow one: drawn less often, and over few seeds, so
		// most of its views come from the cache.
		return []string{"mds", "mds", "pca", "pca", "smacof", "tsne", "umap"}, nil
	case "metric":
		return []string{"pearson", "euclidean", "bogus"}, nil
	case "seed":
		return []string{"1", "42", "-5"}, []string{"abc", "0.5"}
	case "profile":
		return []string{"daily"}, []string{"weekly", "1"}
	case "bx0", "by0", "bx1", "by1":
		return []string{"0", "0.1", "0.25", "0.5", "0.75", "1", "-0.5", "1.5"}, []string{"NaN", "Inf", "abc"}
	case "w", "h":
		return []string{"1", "64", "300", "720"}, []string{"0", "-5", "abc", "1e3"}
	case "quantile":
		return []string{"0", "0.3", "0.5", "0.9", "1"}, []string{"-1", "2", "NaN", "abc"}
	case "cols", "rows":
		return []string{"1", "8", "32", "96", "1099511627776"}, []string{"0", "-3", "1.5"}
	case "kernel":
		return []string{"gaussian", "epanechnikov", "uniform", "bogus"}, nil
	case "od":
		return []string{"matching", "gradient", "bogus"}, nil
	case "mode":
		return []string{"markers", "heat", "heat", "shift", "shift", "shift", "bogus"}, nil
	}
	return nil, []string{"abc", "-1", "NaN"}
}

// request draws one request: a route, and each of its parameters with odds
// of 3 in 8 (a selection parameter 2, and t1, t2 and id, which their
// routes require, 7), one value in ten a bad one; and sometimes a
// parameter only another route reads, with a value that route would
// refuse.
func (e *viewFuzzEnv) request(rng *rand.Rand) (route uint8, query string) {
	route = uint8(rng.Intn(len(viewRoutes)))
	if len(viewRoutes[route].params) == 0 && rng.Intn(5) > 0 {
		route = uint8(rng.Intn(len(viewRoutes)))
	}
	q := url.Values{}
	for _, key := range viewRoutes[route].params {
		odds := 3 // in 8
		switch key {
		case "t1", "t2", "id":
			odds = 7
		case "bbox", "zone", "ids", "from", "to":
			odds = 2
		}
		if rng.Intn(8) < odds {
			good, bad := e.values(rng, key)
			if pool := good; len(bad) > 0 && rng.Intn(10) == 0 || len(pool) == 0 {
				q.Set(key, bad[rng.Intn(len(bad))])
			} else {
				q.Set(key, pool[rng.Intn(len(pool))])
			}
		}
	}
	if rng.Intn(4) == 0 {
		key := "zzz"
		if other := viewRoutes[rng.Intn(len(viewRoutes))].params; len(other) > 0 {
			key = other[rng.Intn(len(other))]
		}
		if !slices.Contains(viewRoutes[route].params, key) {
			q.Set(key, "abc")
		}
	}
	return route, encodeShuffled(rng, q)
}

// encodeShuffled encodes q with its keys in a random order; each key's
// values keep theirs, so q.Get reads the same value back.
func encodeShuffled(rng *rand.Rand, q url.Values) string {
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var b strings.Builder
	for _, k := range keys {
		for _, v := range q[k] {
			if b.Len() > 0 {
				b.WriteByte('&')
			}
			b.WriteString(url.QueryEscape(k) + "=" + url.QueryEscape(v))
		}
	}
	return b.String()
}

// badParams lists the parameters of q that route reads and must refuse,
// by the rules README's parameter table states: an integer, at least 1
// for a size; a finite float, in [0, 1] for quantile; a time literal other
// than epoch 0, and a to after from; four finite coordinates in range for
// bbox; integer ids; a known granularity; profile daily; a known map mode.
// Enumerations another package owns (method, metric, agg, kernel, od,
// zone) are that package's to refuse.
func badParams(route uint8, q url.Values) []string {
	var bad []string
	for _, key := range viewRoutes[route].params {
		v := q.Get(key)
		if v == "" {
			continue
		}
		ok := true
		switch key {
		case "w", "h", "cols", "rows", "seed", "id":
			n, err := strconv.ParseInt(v, 10, 64)
			ok = err == nil && (n >= 1 || key == "seed" || key == "id")
		case "quantile", "bx0", "by0", "bx1", "by1":
			f, err := strconv.ParseFloat(v, 64)
			ok = err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) && (key != "quantile" || f >= 0 && f <= 1)
		case "from", "to", "t1", "t2":
			ts, err := vql.ParseTime(v)
			ok = err == nil && ts != 0
			if from, err := vql.ParseTime(q.Get("from")); ok && key == "to" && err == nil && from != 0 {
				ok = ts > from
			}
		case "bbox":
			var c [4]float64
			parts := strings.Split(v, ",")
			ok = len(parts) == 4
			for i := 0; ok && i < 4; i++ {
				var err error
				c[i], err = strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
				ok = err == nil
			}
			ok = ok && vql.ValidBBox(c[0], c[1], c[2], c[3]) == nil
		case "ids":
			for _, s := range strings.Split(v, ",") {
				_, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
				ok = ok && err == nil
			}
		case "granularity":
			_, err := query.ParseGranularity(v)
			ok = err == nil
		case "profile":
			ok = v == "daily"
		case "mode":
			ok = slices.Contains([]string{"markers", "heat", "shift"}, v)
		}
		if !ok {
			bad = append(bad, key)
		}
	}
	return bad
}

// badParam finds the parameter an api-layer 400 says is bad.
var badParam = regexp.MustCompile(`^\{\s*"error": "api: bad (\w+) parameter`)

// namedParam finds the parameter an api-layer 400 names first.
var namedParam = regexp.MustCompile(`(\w+) parameters?\b`)

// serve runs one GET and checks what any answer must satisfy: no 500; a
// 400 the api layer wrote names only parameters the route reads; a 422,
// 429 or 504 is the governor's (a cost refusal, a shed, a deadline).
func (e *viewFuzzEnv) serve(t *testing.T, route uint8, query string) (int, string) {
	t.Helper()
	rt := viewRoutes[int(route)%len(viewRoutes)]
	req := httptest.NewRequest(http.MethodGet, rt.path, nil)
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	e.mux.ServeHTTP(rec, req)
	body := rec.Body.String()
	switch rec.Code {
	case http.StatusOK, http.StatusNotFound:
	case http.StatusBadRequest:
		if msg, ok := strings.CutPrefix(body, "{\n  \"error\": \"api: "); ok {
			m := namedParam.FindStringSubmatch(msg)
			if m == nil || !slices.Contains(rt.params, m[1]) {
				t.Fatalf("GET %s?%s: a 400 that names no parameter the route reads: %s", rt.path, query, body)
			}
		}
	case http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusGatewayTimeout:
		mark := map[int]string{422: `"est_mem_bytes"`, 429: `"retry_after_sec"`, 504: "deadline exceeded"}[rec.Code]
		if !strings.Contains(body, mark) {
			t.Fatalf("GET %s?%s: %d not from the governor: %s", rt.path, query, rec.Code, body)
		}
	default:
		t.Fatalf("GET %s?%s: status %d: %s", rt.path, query, rec.Code, body)
	}
	return rec.Code, body
}

// variants are requests that must answer exactly as q does: q with its
// keys in another order, its brush dragged the other way, each time given
// as the other kind of literal, and its ids in another order with one
// repeated.
func variants(q url.Values) map[string]url.Values {
	out := map[string]url.Values{"permuted": q}
	if q.Get("bx0")+q.Get("by0")+q.Get("bx1")+q.Get("by1") != "" {
		r := maps.Clone(q)
		for _, axis := range []string{"x", "y"} {
			lo, hi := q.Get("b"+axis+"0"), q.Get("b"+axis+"1")
			r.Set("b"+axis+"0", cmp.Or(hi, "1"))
			r.Set("b"+axis+"1", cmp.Or(lo, "0"))
		}
		out["reversed brush"] = r
	}
	lit := maps.Clone(q)
	for _, key := range []string{"from", "to", "t1", "t2"} {
		v := q.Get(key)
		if ts, err := strconv.ParseInt(v, 10, 64); err == nil && ts > 0 && ts < 253402300800 {
			lit.Set(key, time.Unix(ts, 0).UTC().Format("2006-01-02T15:04:05"))
		} else if ts, err := time.Parse(time.RFC3339, v); err == nil {
			lit.Set(key, strconv.FormatInt(ts.Unix(), 10))
		}
	}
	out["time literals"] = lit
	if ids := strings.Split(q.Get("ids"), ","); len(ids) > 1 {
		r := maps.Clone(q)
		slices.Reverse(ids)
		r.Set("ids", strings.Join(append(ids, ids[0]), ","))
		out["ids permuted"] = r
	}
	return out
}

// FuzzViewRequest drives every GET route with generated query strings over
// a 30-day store of 32 meters. Every answer must pass serve's checks and
// badParams' oracle; a request that answers 200 or 404 must answer byte
// for byte as each of its variants does, and one that answers 400 as its
// permutation does. Routes that report live counters (/api/stats,
// /api/exec) take no parameters and are not compared. The seed corpus is
// drawn from a fixed-seed generator, so tier-1 replays the same requests
// every run.
func FuzzViewRequest(f *testing.F) {
	e := newViewFuzzEnv(f)
	rng := rand.New(rand.NewSource(44))
	for range 850 {
		route, query := e.request(rng)
		f.Add(route, query)
	}
	f.Fuzz(func(t *testing.T, route uint8, query string) {
		route %= uint8(len(viewRoutes))
		code, body := e.serve(t, route, query)
		q, err := url.ParseQuery(query)
		if err != nil || len(viewRoutes[route].params) == 0 {
			return
		}
		// A bad value is a 400 that names a bad value, never a default
		// read in its place; a value that is not bad is never called so.
		bad := badParams(route, q)
		m := badParam.FindStringSubmatch(body)
		if len(bad) > 0 && (m == nil || !slices.Contains(bad, m[1])) || len(bad) == 0 && m != nil {
			t.Fatalf("GET %s?%s: bad parameters %q, answered %d: %.300s", viewRoutes[route].path, query, bad, code, body)
		}
		rng := rand.New(rand.NewSource(int64(len(query))))
		for what, v := range variants(q) {
			// A bad value's 400 depends on which parameter holds it, so
			// only the permutation must keep a 400's body.
			if code != http.StatusOK && code != http.StatusNotFound && (code != http.StatusBadRequest || what != "permuted") {
				continue
			}
			vq := encodeShuffled(rng, v)
			if c, b := e.serve(t, route, vq); c != code || b != body {
				t.Fatalf("%s: GET %s?%s answered %d, and its variant ?%s answered %d:\n%.300s\n---\n%.300s",
					what, viewRoutes[route].path, query, code, vq, c, body, b)
			}
		}
	})
}
