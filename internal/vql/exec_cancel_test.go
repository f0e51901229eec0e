package vql

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/query"
	"vap/internal/store"
)

// flipCtx reports no error for the first `after` Err() probes, then is
// permanently cancelled — a deterministic stand-in for a context that
// cancels partway through a scan.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancellationAbortsMidScan proves the vectorized batch loop checks
// cancellation per decoded batch, not just per meter: with ONE meter
// holding many batches worth of samples, a context that flips to
// cancelled after the scan starts must abort the scan. If only the
// per-meter check existed, the single meter would pass it once (while the
// context still reported nil) and the scan would run to completion.
func TestCancellationAbortsMidScan(t *testing.T) {
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutMeter(store.Meter{ID: 1, Location: geo.Point{Lon: 10, Lat: 55}, Zone: store.ZoneResidential}); err != nil {
		t.Fatal(err)
	}
	const samples = 64 * store.BatchSize // 64 batches in one meter
	smps := make([]store.Sample, samples)
	for i := range smps {
		smps[i] = store.Sample{TS: int64(i * 60), Value: float64(i)}
	}
	if _, err := st.AppendBatch(1, smps); err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngineWorkers(st, 1) // sequential: a single scan chunk

	// GROUP BY zone keeps the scan on raw samples: bucketless plans never
	// ride a rollup tier (see planTier), so all 64 batches are decoded.
	p, err := Compile(mustParse(t, "SELECT zone, sum(value) FROM meters GROUP BY zone"))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := ResolveScanMeters(eng, p)
	if err != nil {
		t.Fatal(err)
	}
	from, to, ok := p.ResolveWindow(st)
	if !ok {
		t.Fatal("window did not resolve")
	}

	// Sanity: with a live context the scan completes over every sample.
	full, err := ExecuteResolved(context.Background(), eng, p, ids, from, to, true)
	if err != nil {
		t.Fatal(err)
	}
	if full.Samples != samples {
		t.Fatalf("full scan aggregated %d samples, want %d", full.Samples, samples)
	}

	// Cancel after a handful of probes: past the per-meter check, well
	// before the 64 per-batch checks run out.
	ctx := &flipCtx{Context: context.Background(), after: 4}
	if _, err := ExecuteResolved(ctx, eng, p, ids, from, to, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancellation returned %v, want context.Canceled", err)
	}
	if n := ctx.calls.Load(); n > 16 {
		t.Fatalf("scan kept probing after cancellation: %d Err() calls", n)
	}
}

// TestGrantDeadlineAbortsScan drives the same path through a governed
// grant: an admitted analytics query whose deadline (the front door's
// handler timeout) expires mid-scan surfaces context.DeadlineExceeded from
// the batch loop.
func TestGrantDeadlineAbortsScan(t *testing.T) {
	c := govern.New(govern.Config{})
	g, err := c.Admit(context.Background(), govern.Request{Class: govern.ClassAnalytics})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx := govern.WithGrant(context.Background(), g)
	dctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second)) // already expired
	defer cancel()
	pace := govern.PaceFunc(dctx)
	if err := pace(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired grant deadline paced to %v, want DeadlineExceeded", err)
	}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
