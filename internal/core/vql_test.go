package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vap/internal/geo"
	"vap/internal/store"
)

func newVQLAnalyzer(t *testing.T) (*Analyzer, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for id := int64(1); id <= 3; id++ {
		m := store.Meter{ID: id, Location: geo.Point{Lon: 10 + float64(id)*0.01, Lat: 55}, Zone: store.ZoneResidential}
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 24; h++ {
			if err := st.Append(id, store.Sample{TS: 1496275200 + int64(h)*3600, Value: float64(id)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewAnalyzer(st), st
}

func TestVQLExplainDoesNotExecuteOrCache(t *testing.T) {
	an, _ := newVQLAnalyzer(t)
	out, err := an.VQL(context.Background(), "EXPLAIN SELECT meter, sum(value) FROM meters GROUP BY meter")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Columns) != 1 || out.Columns[0] != "plan" {
		t.Fatalf("explain columns = %v", out.Columns)
	}
	if len(out.Rows) == 0 || !strings.Contains(out.Plan, "GroupAggregate") {
		t.Fatalf("explain rows/plan missing: %v / %q", out.Rows, out.Plan)
	}
	if stats := an.ExecStats(); stats.Computes != 0 || an.Exec().Len() != 0 {
		t.Fatalf("EXPLAIN touched the cache: %+v", stats)
	}
}

func TestVQLEmptySelectionSkipsCache(t *testing.T) {
	an, _ := newVQLAnalyzer(t)
	out, err := an.VQL(context.Background(), "SELECT count(*) FROM meters WHERE zone = 'industrial'")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].(int64) != 0 {
		t.Fatalf("empty selection rows = %v, want one zero-count row", out.Rows)
	}
	if an.Exec().Len() != 0 {
		t.Fatal("empty-selection result was cached")
	}
	// A window entirely outside the data skips the cache the same way.
	out, err = an.VQL(context.Background(), "SELECT meter, count(*) FROM meters WHERE time < 100 GROUP BY meter")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 0 || an.Exec().Len() != 0 {
		t.Fatalf("out-of-extent window: rows=%v cached=%d", out.Rows, an.Exec().Len())
	}
}

func TestVQLExplainFlagNotFooledByAlias(t *testing.T) {
	an, _ := newVQLAnalyzer(t)
	out, err := an.VQL(context.Background(), "SELECT count(*) AS plan FROM meters")
	if err != nil {
		t.Fatal(err)
	}
	if out.Explain {
		t.Fatal("aliasing a column 'plan' must not mark the result as EXPLAIN")
	}
	if len(out.Rows) != 1 || out.Rows[0][0].(int64) != 72 {
		t.Fatalf("rows = %v, want the real count", out.Rows)
	}
	exp, err := an.VQL(context.Background(), "EXPLAIN SELECT count(*) FROM meters")
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Explain {
		t.Fatal("EXPLAIN output not flagged")
	}
}

func TestVQLParseErrorPropagates(t *testing.T) {
	an, _ := newVQLAnalyzer(t)
	if _, err := an.VQL(context.Background(), "SELECT nope FROM meters"); err == nil {
		t.Fatal("want parse error")
	}
}

func TestVQLFingerprintMatchesObservedData(t *testing.T) {
	an, st := newVQLAnalyzer(t)
	const q = "SELECT sum(value) FROM meters WHERE meter IN (1, 2)"
	a, err := an.VQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := an.VQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.SelectionFingerprint != b.SelectionFingerprint {
		t.Fatal("fingerprint moved without mutation")
	}
	if err := st.Append(2, store.Sample{TS: 1496275200 + 24*3600, Value: 7}); err != nil {
		t.Fatal(err)
	}
	c, err := an.VQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if c.SelectionFingerprint == a.SelectionFingerprint {
		t.Fatal("fingerprint unchanged after appending to a selected meter")
	}
	if c.Rows[0][0].(float64) != a.Rows[0][0].(float64)+7 {
		t.Fatalf("sum = %v, want %v", c.Rows[0][0], a.Rows[0][0].(float64)+7)
	}
}

// TestPlanCacheBounds: the plan cache keeps compiled plans by text, never
// a parse or compile error, never a text over planCacheMaxText, and never
// more than planCacheEntries plans.
func TestPlanCacheBounds(t *testing.T) {
	an, _ := newVQLAnalyzer(t)
	ctx := context.Background()
	const q = "SELECT meter, sum(value) FROM meters GROUP BY meter"
	a, err := an.VQL(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := an.VQL(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.PlanHash != b.PlanHash || an.plans.plans[q] == nil {
		t.Fatalf("statement not served from the plan cache: %v", an.plans.plans)
	}
	for _, bad := range []string{"SELEKT 1", "SELECT meter, sum(value) FROM meters"} {
		if _, err := an.VQL(ctx, bad); err == nil {
			t.Fatalf("%q compiled", bad)
		}
		if _, ok := an.plans.plans[bad]; ok {
			t.Fatalf("error of %q cached", bad)
		}
	}
	long := "SELECT meter, sum(value) FROM meters WHERE meter IN (1" + strings.Repeat(", 2", planCacheMaxText/3) + ") GROUP BY meter"
	if _, err := an.VQL(ctx, long); err != nil {
		t.Fatal(err)
	}
	if _, ok := an.plans.plans[long]; ok {
		t.Fatalf("a %d-byte text was cached", len(long))
	}
	for i := 0; i < 2*planCacheEntries; i++ {
		if _, err := an.VQL(ctx, fmt.Sprintf("SELECT sum(value) FROM meters WHERE time >= %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(an.plans.plans); n != planCacheEntries {
		t.Fatalf("plan cache holds %d plans, want the bound %d", n, planCacheEntries)
	}
}

// TestPlanCacheSharedPlans runs the same texts from many goroutines (under
// -race in CI): one compiled plan serves them all, cache hits and misses
// alike, and every answer equals the one a fresh analyzer gives.
func TestPlanCacheSharedPlans(t *testing.T) {
	an, st := newVQLAnalyzer(t)
	ctx := context.Background()
	stmts := []string{
		"SELECT meter, sum(value) FROM meters GROUP BY meter",
		"SELECT zone, mean(value) FROM meters WHERE zone = 'residential' GROUP BY zone",
		"SELECT meter, bucket(hourly), max(value) FROM meters WHERE meter IN (1, 3) GROUP BY meter, bucket(hourly)",
		"SELECT count(*) FROM meters WHERE bbox(10.0, 54.0, 10.025, 56.0)",
	}
	want := make([]string, len(stmts))
	for i, q := range stmts {
		out, err := NewAnalyzer(st).VQL(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(out.Rows)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (i + w) % len(stmts)
				if w%2 == 1 && i%5 == 0 {
					an.Exec().Invalidate() // misses run the shared plan too
				}
				out, err := an.VQL(ctx, stmts[k])
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(out.Rows); got != want[k] {
					t.Errorf("%s: rows %s, want %s", stmts[k], got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(an.plans.plans); n != len(stmts) {
		t.Fatalf("plan cache holds %d plans for %d texts", n, len(stmts))
	}
}
