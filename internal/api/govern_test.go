package api

// Governance front-door tests: the HTTP taxonomy for cost rejections
// (422) and overload shedding (429 + Retry-After), plus the -race
// mixed-workload test the ISSUE demands — concurrent cheap queries,
// monster scans, and ingest, asserting no starvation, quota enforcement,
// and zero residual exec-engine or controller state afterwards.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/govern"
	"vap/internal/query"
	"vap/internal/store"
)

// newGovServer builds a dataset-backed server — perPattern meters of each
// of four load patterns, 20 days — whose analyzer runs under an explicit
// admission controller.
func newGovServer(t *testing.T, cfg govern.Config, perPattern int) (*httptest.Server, *core.Analyzer, *gen.Dataset) {
	t.Helper()
	ds := gen.Generate(gen.Config{
		Seed: 11,
		Days: 20,
		Counts: map[gen.Pattern]int{
			gen.PatternBimodal:      perPattern,
			gen.PatternEnergySaving: perPattern,
			gen.PatternConstantHigh: perPattern,
			gen.PatternEarlyBird:    perPattern,
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
	an := core.NewAnalyzerOpts(st, core.Options{Gov: govern.New(cfg)})
	srv := httptest.NewServer(NewServer(an, nil).Routes())
	t.Cleanup(srv.Close)
	return srv, an, ds
}

// postQueryAs sends one request under a tenant header: a path is a GET, any
// other text a VQL statement posted to /api/query.
func postQueryAs(t *testing.T, url, tenant, query string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+query, nil)
	if !strings.HasPrefix(query, "/") {
		body, _ := json.Marshal(map[string]string{"query": query})
		req, err = http.NewRequest(http.MethodPost, url+"/api/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode query response: %v", err)
	}
	return resp, out
}

const monsterQuery = "SELECT zone, sum(value) FROM meters GROUP BY zone"

// TestQueryCostCeiling422: a tenant with a cost ceiling gets its monster
// scan rejected with the typed "query too expensive" error mapped to 422,
// carrying the estimate and the ceiling; the same query runs fine for an
// uncapped tenant; and the rejected query leaves no residual cache state.
func TestQueryCostCeiling422(t *testing.T) {
	srv, an, _ := newGovServer(t, govern.Config{
		Tenants: map[string]govern.Quota{"capped": {MaxCostSamples: 100}},
	}, 8)
	resp, out := postQueryAs(t, srv.URL, "capped", monsterQuery)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%v), want 422", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"].(string), "query too expensive") {
		t.Errorf("error %q missing the typed message", out["error"])
	}
	if out["est_samples"].(float64) <= 100 || out["cost_ceiling"].(float64) != 100 {
		t.Errorf("422 body must carry est/ceiling: %v", out)
	}
	// A rejected query never reached the exec engine: no cached result,
	// no singleflight residue, no controller accounting left open.
	if n := an.Exec().Len(); n != 0 {
		t.Errorf("rejected query left %d exec-cache entries", n)
	}
	snap := an.Gov().Snapshot()
	if snap.Active != 0 || snap.QueueDepth != 0 {
		t.Errorf("rejected query left controller state: %+v", snap)
	}
	if snap.Tenants["capped"].RejectedCost != 1 {
		t.Errorf("rejected_cost = %d, want 1", snap.Tenants["capped"].RejectedCost)
	}

	// Uncapped default tenant: same statement succeeds and caches.
	resp, out = postQueryAs(t, srv.URL, "", monsterQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncapped status %d (%v), want 200", resp.StatusCode, out)
	}
	if n := an.Exec().Len(); n != 1 {
		t.Errorf("successful query cached %d entries, want 1", n)
	}
}

// TestQueryShed429: with the only execution slot held and the queue full,
// an analytics query is shed with 429, a Retry-After header, and the
// typed JSON body — and the controller's gauges return to zero once the
// held grants release.
func TestQueryShed429(t *testing.T) {
	srv, an, _ := newGovServer(t, govern.Config{
		MaxConcurrent:     1,
		MaxQueue:          1,
		MaxQueueWait:      time.Minute,
		RetryAfter:        2 * time.Second,
		InteractiveCutoff: 1, // everything estimable is analytics
	}, 8)
	gov := an.Gov()
	// Hold the slot and fill the one queue space with analytics work.
	held, err := gov.Admit(context.Background(), govern.Request{Class: govern.ClassAnalytics})
	if err != nil {
		t.Fatal(err)
	}
	waiterDone := make(chan error, 1)
	go func() {
		g, err := gov.Admit(context.Background(), govern.Request{Class: govern.ClassAnalytics})
		if err == nil {
			g.Release()
		}
		waiterDone <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for gov.Snapshot().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, out := postQueryAs(t, srv.URL, "dash", monsterQuery)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%v), want 429", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if out["class"] != string(govern.ClassAnalytics) || out["tenant"] != "dash" {
		t.Errorf("429 body taxonomy: %v", out)
	}
	if !strings.Contains(out["error"].(string), "overloaded") {
		t.Errorf("429 error %q missing the typed message", out["error"])
	}

	held.Release()
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	snap := gov.Snapshot()
	if snap.Active != 0 || snap.QueueDepth != 0 || snap.Interactive != 0 {
		t.Errorf("residual controller state after shed: %+v", snap)
	}
	if n := an.Exec().Len(); n != 0 {
		t.Errorf("shed query left %d exec-cache entries", n)
	}
}

// TestGovernMixedWorkload is the -race mixed-workload test, one row per
// kind of monster: concurrent cheap interactive queries, monster work, and
// NDJSON ingest against one governed server. Cheap queries must never
// starve (every one completes with 200), monsters may run or shed but
// nothing else, quota tenants stay within their ceilings, and when the dust
// settles the controller holds zero active grants, zero queue depth, and
// zero reserved memory. The analysis views pass the same admission as VQL:
// cold reduces queue or shed, a capped tenant's reduce is a 422, a flow map
// that finds the queue full is a 429, and a reduce whose feature matrix
// exceeds the memory budget is refused before it is built.
func TestGovernMixedWorkload(t *testing.T) {
	rows := []struct {
		name       string
		cfg        govern.Config
		perPattern int
		// monster is monster client k's request of round i (a path or a
		// statement, see postQueryAs); nil runs no mixed phase.
		monster  func(k, i int) string
		monsters int
		capped   string // the capped tenant's over-ceiling request
		// probe runs after the mixed phase, before the residue checks.
		probe func(t *testing.T, srv *httptest.Server, an *core.Analyzer, ds *gen.Dataset)
	}{{
		name: "vql scans",
		cfg: govern.Config{
			MaxConcurrent:     4,
			MaxQueue:          64,
			MaxQueueWait:      30 * time.Second,
			InteractiveCutoff: 5_000, // one-meter/one-day reads stay interactive
			Tenants: map[string]govern.Quota{
				"capped": {MaxCostSamples: 100},
			},
		},
		perPattern: 8,
		// Distinct GROUP BY shapes defeat exec-cache/singleflight
		// coalescing so the scans really run concurrently with the cheap
		// reads.
		monster: func(k, _ int) string {
			return []string{
				"SELECT zone, sum(value) FROM meters GROUP BY zone",
				"SELECT meter, sum(value), min(value), max(value) FROM meters GROUP BY meter",
			}[k]
		},
		monsters: 2,
		capped:   monsterQuery,
	}, {
		// The reducing tenant may run two at a time and queue one more;
		// the cheap and ingest clients never wait for a slot.
		name: "cold reduces",
		cfg: govern.Config{
			MaxConcurrent:     16,
			MaxQueue:          1,
			MaxQueueWait:      30 * time.Second,
			RetryAfter:        2 * time.Second,
			InteractiveCutoff: 5_000,
			Tenants: map[string]govern.Quota{
				"capped": {MaxCostSamples: 100},
				"batch":  {MaxConcurrent: 2},
			},
		},
		perPattern: 8,
		monster: func(k, i int) string {
			return fmt.Sprintf("/api/reduce?method=mds&seed=%d", 1000*k+i)
		},
		monsters: 8,
		capped:   "/api/reduce?method=mds",
		probe: func(t *testing.T, srv *httptest.Server, an *core.Analyzer, ds *gen.Dataset) {
			// Hold the batch tenant's two slots and fill the queue's one
			// place; a flow map whose intensity band makes it analytics
			// then overflows.
			gov := an.Gov()
			analytics := govern.Request{Tenant: "batch", Class: govern.ClassAnalytics}
			var held []*govern.Grant
			for range 2 {
				g, err := gov.Admit(context.Background(), analytics)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, g)
			}
			waiterDone := make(chan error, 1)
			go func() {
				g, err := gov.Admit(context.Background(), analytics)
				g.Release()
				waiterDone <- err
			}()
			for deadline := time.Now().Add(2 * time.Second); gov.Snapshot().QueueDepth != 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("waiter never queued")
				}
			}
			noon := ds.Start.Unix() + 5*86400 + 12*3600
			resp, out := postQueryAs(t, srv.URL, "batch", fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=4hourly&quantile=0.5", noon, noon+8*3600))
			if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "2" {
				t.Errorf("overflowing flow map: status %d, Retry-After %q (%v), want 429 and \"2\"", resp.StatusCode, resp.Header.Get("Retry-After"), out["error"])
			}
			for _, g := range held {
				g.Release()
			}
			if err := <-waiterDone; err != nil {
				t.Errorf("queued waiter: %v", err)
			}
		},
	}, {
		name:       "reduce over the memory budget",
		cfg:        govern.Config{MemBudget: 4 << 20},
		perPattern: 2,
		probe: func(t *testing.T, srv *httptest.Server, an *core.Analyzer, ds *gen.Dataset) {
			// An hourly feature matrix from 1970: 8 meters x ~420k buckets.
			// The series view averages the same matrix, and one meter's
			// series is one of its rows.
			_, last, _ := an.Store().TimeBounds()
			axis, _ := query.BucketAxis(query.GranHourly, 1, last+1)
			matrix := uint64(8 * len(ds.Customers) * len(axis))
			for _, path := range []string{"/api/reduce?from=1&granularity=hourly", "/view/series.svg?from=1&granularity=hourly", "/api/series?id=1&from=1&granularity=hourly"} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				resp, out := postQueryAs(t, srv.URL, "", path)
				runtime.ReadMemStats(&after)
				if est, _ := out["est_mem_bytes"].(float64); resp.StatusCode != http.StatusUnprocessableEntity || est <= 4<<20 {
					t.Fatalf("%s: status %d (%v), want 422 with est_mem_bytes over the budget", path, resp.StatusCode, out["error"])
				}
				if grown := after.TotalAlloc - before.TotalAlloc; grown >= matrix {
					t.Errorf("%s: the refused request allocated %d bytes, not less than its %d-byte matrix", path, grown, matrix)
				}
			}
		},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			srv, an, ds := newGovServer(t, row.cfg, row.perPattern)
			if row.monster != nil {
				mixedWorkload(t, srv, an, ds, row.monster, row.monsters, row.capped)
			}
			if row.probe != nil {
				row.probe(t, srv, an, ds)
			}
			// The dust settles clean: nothing active, queued, or reserved.
			snap := an.Gov().Snapshot()
			if snap.Active != 0 || snap.ActiveMemBytes != 0 || snap.QueueDepth != 0 || snap.Interactive != 0 {
				t.Errorf("residual controller state: %+v", snap)
			}
			for name, ts := range snap.Tenants {
				if ts.Active != 0 || ts.ActiveMemBytes != 0 {
					t.Errorf("tenant %q residue: %+v", name, ts)
				}
			}
		})
	}
}

// mixedWorkload is TestGovernMixedWorkload's concurrent phase: eight cheap
// clients of five queries each, two ingest writers, a capped tenant sending
// capped five times, and monsters clients sending monster(k, i) in rounds
// until the others are done.
func mixedWorkload(t *testing.T, srv *httptest.Server, an *core.Analyzer, ds *gen.Dataset, monster func(k, i int) string, monsters int, capped string) {
	day0 := ds.Start.Unix()
	cheapQuery := func(meter int, day int64) string {
		return fmt.Sprintf("SELECT sum(value) FROM meters WHERE meter IN (%d) AND time >= %d AND time < %d",
			meter, day0+day*86400, day0+(day+1)*86400)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[string]map[int]int{"cheap": {}, "monster": {}, "ingest": {}, "capped": {}}
	record := func(kind string, code int) {
		mu.Lock()
		statuses[kind][code]++
		mu.Unlock()
	}

	stop := make(chan struct{})
	for k := range monsters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				an.Exec().Invalidate() // force a real scan every round
				resp, _ := postQueryAs(t, srv.URL, "batch", monster(k, i))
				record("monster", resp.StatusCode)
			}
		}()
	}
	// 8 cheap interactive clients, 5 queries each.
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp, out := postQueryAs(t, srv.URL, "dash", cheapQuery(1+(c+j)%8, int64(j%10)))
				record("cheap", resp.StatusCode)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("cheap query starved or failed: %d %v", resp.StatusCode, out)
				}
			}
		}(c)
	}
	// 2 ingest writers appending fresh meters.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				id := 10_000 + c*100 + j
				var body bytes.Buffer
				fmt.Fprintf(&body, `{"meter":%d,"lon":12.5,"lat":55.6,"zone":"residential"}`+"\n", id)
				for k := 0; k < 50; k++ {
					fmt.Fprintf(&body, `{"meter":%d,"ts":%d,"v":%d.5}`+"\n", id, int64(k)*900, k)
				}
				req, err := http.NewRequest(http.MethodPost, srv.URL+"/api/ingest", bytes.NewReader(body.Bytes()))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/x-ndjson")
				req.Header.Set(TenantHeader, "writer")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				record("ingest", resp.StatusCode)
			}
		}(c)
	}
	// A capped tenant hammering an over-ceiling request: always 422, with
	// the estimate that exceeded the ceiling.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			resp, out := postQueryAs(t, srv.URL, "capped", capped)
			record("capped", resp.StatusCode)
			if est, _ := out["est_samples"].(float64); resp.StatusCode == http.StatusUnprocessableEntity && est <= 100 {
				t.Errorf("capped 422 without the estimate over the ceiling: %v", out)
			}
		}
	}()

	// Let cheap/ingest/capped clients finish, then stop the monsters.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		time.Sleep(100 * time.Millisecond) // overlap window
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("mixed workload deadlocked")
	}

	mu.Lock()
	defer mu.Unlock()
	if statuses["cheap"][http.StatusOK] != 40 {
		t.Errorf("cheap statuses %v, want 40x 200", statuses["cheap"])
	}
	if statuses["ingest"][http.StatusOK] != 10 {
		t.Errorf("ingest statuses %v, want 10x 200", statuses["ingest"])
	}
	if statuses["capped"][http.StatusUnprocessableEntity] != 5 {
		t.Errorf("capped statuses %v, want 5x 422", statuses["capped"])
	}
	t.Logf("monster statuses %v", statuses["monster"])
	for code := range statuses["monster"] {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("monster got status %d; only 200/429 are legal under load", code)
		}
	}
	// /api/stats surfaces the same governance object.
	var stats struct {
		Governance govern.Snapshot `json:"governance"`
	}
	if code := getJSON(t, srv.URL+"/api/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Governance.Tenants["dash"].Admitted < 40 {
		t.Errorf("stats governance lost dash admissions: %+v", stats.Governance.Tenants["dash"])
	}
}
