package core

import (
	"context"
	"errors"
	"testing"

	"vap/internal/gen"
	"vap/internal/govern"
	"vap/internal/store"
)

// budgetAnalyzer is the default 460-meter city over one week, with a
// governor whose "capped" tenant may not run a scan estimated above 100
// samples.
func budgetAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := gen.Generate(gen.Config{Seed: 1, Days: 7}).LoadInto(st); err != nil {
		t.Fatal(err)
	}
	gov := govern.New(govern.Config{Tenants: map[string]govern.Quota{"capped": {MaxCostSamples: 100}}})
	return NewAnalyzerOpts(st, Options{Workers: 1, Gov: gov})
}

// TestCachedStatementAllocs is the work budget of a result-cache hit: a
// cached statement costs one pass over its meters' versions, so its heap
// allocations do not grow with the selection. The statement runs once to
// fill the cache; every measured run must be a hit.
func TestCachedStatementAllocs(t *testing.T) {
	an := budgetAnalyzer(t)
	ctx := context.Background()
	cases := []struct {
		name      string
		sql       string
		minMeters int
		// budget is the ceiling; parent is what a hit cost before the plan
		// cache, the published catalog view and the one-pass fingerprint.
		budget, parent float64
	}{
		{"zone", "SELECT bucket(daily), sum(value) FROM meters WHERE zone = 'residential' AND time >= '2018-01-02' AND time < '2018-01-05' GROUP BY bucket(daily)", 300, 10, 312},
		{"one meter", "SELECT bucket(hourly), mean(value) FROM meters WHERE meter = 7 AND time >= '2018-01-02' AND time < '2018-01-03' GROUP BY bucket(hourly)", 1, 10, 122},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := an.VQL(ctx, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if out.Meters < tc.minMeters {
				t.Fatalf("statement selects %d meters, want >= %d", out.Meters, tc.minMeters)
			}
			before := an.ExecStats()
			const runs = 100
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := an.VQL(ctx, tc.sql); err != nil {
					t.Fatal(err)
				}
			})
			after := an.ExecStats()
			if after.Computes != before.Computes || after.Hits-before.Hits != runs+1 {
				t.Fatalf("measured runs were not all cache hits: %+v -> %+v", before, after)
			}
			if allocs > tc.budget {
				t.Fatalf("cached statement allocates %.0f times, budget %.0f (parent: %.0f)", allocs, tc.budget, tc.parent)
			}
			t.Logf("%.0f allocations (budget %.0f, parent %.0f)", allocs, tc.budget, tc.parent)
		})
	}
}

// TestCachedHitStillCostCapped: a hit is admitted as the request that
// filled its entry, under the caller's own tenant, so a tenant whose cost
// ceiling is below the statement's estimate is refused even when another
// tenant's run left the answer cached.
func TestCachedHitStillCostCapped(t *testing.T) {
	an := budgetAnalyzer(t)
	const sql = "SELECT zone, sum(value) FROM meters WHERE time >= '2018-01-02' AND time < '2018-01-05' GROUP BY zone"
	if _, err := an.VQL(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	before := an.ExecStats()
	_, err := an.VQL(govern.WithTenant(context.Background(), "capped"), sql)
	var ce *govern.CostError
	if !errors.As(err, &ce) {
		t.Fatalf("capped tenant's cached statement: err %v, want *govern.CostError", err)
	}
	if ce.Tenant != "capped" || ce.Est <= ce.Ceiling {
		t.Fatalf("cost error %+v: want tenant capped and an estimate above its ceiling", ce)
	}
	if after := an.ExecStats(); after.Hits != before.Hits+1 || after.Computes != before.Computes {
		t.Fatalf("refused statement was not looked up as a hit: %+v -> %+v", before, after)
	}
	// The default tenant still gets the cached answer.
	if _, err := an.VQL(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
}
