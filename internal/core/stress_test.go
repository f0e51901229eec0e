package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"vap/internal/gen"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
)

// TestAnalyzerConcurrentStress hammers one Analyzer from many goroutines
// mixing TypicalPatterns, ShiftPatterns, and concurrent store appends.
// Run under -race (CI does) it proves the execution engine's cache,
// singleflight, and parallel kernels are data-race free, and it asserts
// the versioned-cache contract end to end: results computed before an
// append are never served for a version observed after it.
func TestAnalyzerConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ds := gen.Generate(gen.Config{
		Seed: 23,
		Days: 30,
		Counts: map[gen.Pattern]int{
			gen.PatternBimodal:      12,
			gen.PatternEnergySaving: 10,
			gen.PatternIdle:         8,
			gen.PatternConstantHigh: 8,
			gen.PatternSuspicious:   6,
			gen.PatternEarlyBird:    8,
		},
	})
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := ds.LoadInto(st); err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzerOpts(st, Options{Workers: 4})
	ctx := context.Background()
	noon := ds.Start.Unix() + 5*86400 + 12*3600

	const (
		readers   = 6
		appenders = 2
		rounds    = 8
	)
	// Appenders extend each meter's series past its current tail.
	nextTS := make([]atomic.Int64, len(ds.Customers))
	for i, c := range ds.Customers {
		_, last, err := st.Bounds(c.Meter.ID)
		if err != nil {
			t.Fatal(err)
		}
		nextTS[i].Store(last + 3600)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, readers+appenders)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if g%2 == 0 {
					cfg := TypicalConfig{Seed: int64(g % 3), Method: reduce.MethodMDS}
					if _, err := an.TypicalPatterns(ctx, cfg); err != nil {
						errCh <- err
						return
					}
				} else {
					cfg := ShiftConfig{
						T1: noon, T2: noon + 8*3600,
						Granularity: query.Gran4Hourly,
						GridCols:    32, GridRows: 32,
					}
					if _, err := an.ShiftPatternsCtx(ctx, cfg); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				i := (g*17 + r*5) % len(ds.Customers)
				ts := nextTS[i].Add(3600)
				err := st.Append(ds.Customers[i].Meter.ID, store.Sample{TS: ts, Value: 1.0})
				if err != nil && !errors.Is(err, store.ErrOutOfOrder) {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiescent invalidation check: the store is no longer moving, so a
	// fresh call must compute against the final version, and a repeat must
	// hit that cache entry — never one from mid-stress.
	cfg := TypicalConfig{Seed: 99, Method: reduce.MethodMDS}
	v1, err := an.TypicalPatterns(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	computes := an.ExecStats().Computes
	v2, err := an.TypicalPatterns(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || an.ExecStats().Computes != computes {
		t.Fatal("post-stress repeat did not hit the cache")
	}
	ver := st.Version()
	id := ds.Customers[0].Meter.ID
	_, last, _ := st.Bounds(id)
	if err := st.Append(id, store.Sample{TS: last + 3600, Value: 3}); err != nil {
		t.Fatal(err)
	}
	if st.Version() <= ver {
		t.Fatal("append did not bump version")
	}
	v3, err := an.TypicalPatterns(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("version bump did not invalidate the cached view")
	}
	if an.ExecStats().Computes != computes+1 {
		t.Fatalf("expected exactly one recompute after invalidation, computes %d -> %d",
			computes, an.ExecStats().Computes)
	}
}
