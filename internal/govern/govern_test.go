package govern

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmitFastPathAndRelease(t *testing.T) {
	c := New(Config{MaxConcurrent: 2, MemBudget: 100})
	g1, err := c.Admit(context.Background(), Request{Tenant: "a", EstMem: 40})
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	g2, err := c.Admit(context.Background(), Request{Tenant: "a", EstMem: 40})
	if err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	snap := c.Snapshot()
	if snap.Active != 2 || snap.ActiveMemBytes != 80 {
		t.Fatalf("active=%d mem=%d, want 2/80", snap.Active, snap.ActiveMemBytes)
	}
	g1.Release()
	g1.Release() // idempotent
	g2.Release()
	snap = c.Snapshot()
	if snap.Active != 0 || snap.ActiveMemBytes != 0 {
		t.Fatalf("after release: active=%d mem=%d, want 0/0", snap.Active, snap.ActiveMemBytes)
	}
	if got := snap.Tenants["a"].Admitted; got != 2 {
		t.Fatalf("tenant admitted=%d, want 2", got)
	}
}

func TestCostCeilingRejects(t *testing.T) {
	c := New(Config{Tenants: map[string]Quota{"capped": {MaxCostSamples: 1000}}})
	_, err := c.Admit(context.Background(), Request{Tenant: "capped", EstSamples: 5000})
	var ce *CostError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CostError, got %v", err)
	}
	if ce.Est != 5000 || ce.Ceiling != 1000 {
		t.Fatalf("cost error fields: %+v", ce)
	}
	if want := "query too expensive, est=5000"; !contains(ce.Error(), want) {
		t.Fatalf("error %q does not contain %q", ce.Error(), want)
	}
	if got := c.Snapshot().Tenants["capped"].RejectedCost; got != 1 {
		t.Fatalf("rejected_cost=%d, want 1", got)
	}
	// Under the ceiling: admitted.
	g, err := c.Admit(context.Background(), Request{Tenant: "capped", EstSamples: 1000})
	if err != nil {
		t.Fatalf("at-ceiling admit: %v", err)
	}
	g.Release()
}

func TestMemBudgetRejectsImpossibleRequest(t *testing.T) {
	c := New(Config{MemBudget: 1 << 20})
	_, err := c.Admit(context.Background(), Request{EstMem: 2 << 20})
	var ce *CostError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CostError for over-budget memory, got %v", err)
	}
	if ce.EstMem != 2<<20 || ce.MemBudget != 1<<20 {
		t.Fatalf("mem cost error fields: %+v", ce)
	}
}

func TestQueueAdmitsOnRelease(t *testing.T) {
	c := New(Config{MaxConcurrent: 1})
	g1, err := c.Admit(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		g2, err := c.Admit(context.Background(), Request{})
		if err == nil {
			g2.Release()
		}
		got <- err
	}()
	// The second admit must be queued, not rejected.
	deadline := time.After(2 * time.Second)
	for c.Snapshot().QueueDepth == 0 {
		select {
		case err := <-got:
			t.Fatalf("second admit finished before release: %v", err)
		case <-deadline:
			t.Fatal("second admit never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	g1.Release()
	if err := <-got; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}
	snap := c.Snapshot()
	if snap.Tenants[DefaultTenant].Queued != 1 {
		t.Fatalf("queued counter=%d, want 1", snap.Tenants[DefaultTenant].Queued)
	}
	// The queued admission recorded a wait in some histogram bucket.
	total := uint64(0)
	for _, v := range snap.Tenants[DefaultTenant].QueueWaitHist {
		total += v
	}
	if total != 2 { // one fast-path (<1ms), one queued
		t.Fatalf("wait histogram total=%d, want 2", total)
	}
}

func TestTenantConcurrencyQuota(t *testing.T) {
	c := New(Config{MaxConcurrent: 8, MaxQueue: 1, MaxQueueWait: 50 * time.Millisecond,
		Tenants: map[string]Quota{"small": {MaxConcurrent: 1}}})
	g1, err := c.Admit(context.Background(), Request{Tenant: "small"})
	if err != nil {
		t.Fatal(err)
	}
	// Other tenants are unaffected by small's quota.
	g3, err := c.Admit(context.Background(), Request{Tenant: "big"})
	if err != nil {
		t.Fatalf("other tenant blocked by small's quota: %v", err)
	}
	g3.Release()
	// A second "small" request queues, then sheds at the wait bound.
	_, err = c.Admit(context.Background(), Request{Tenant: "small"})
	var se *ShedError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShedError from wait bound, got %v", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("shed error carries no Retry-After: %+v", se)
	}
	g1.Release()
}

func TestQueueFullShedsLowestPriority(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 1, MaxQueueWait: time.Minute})
	g, err := c.Admit(context.Background(), Request{Class: ClassAnalytics})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the one queue slot with an analytics waiter.
	analyticsErr := make(chan error, 1)
	go func() {
		ga, err := c.Admit(context.Background(), Request{Class: ClassAnalytics})
		if err == nil {
			ga.Release()
		}
		analyticsErr <- err
	}()
	waitQueueDepth(t, c, 1)

	// A second analytics request sheds ITSELF (nothing waiting ranks below).
	_, err = c.Admit(context.Background(), Request{Class: ClassAnalytics})
	var se *ShedError
	if !errors.As(err, &se) || se.Class != ClassAnalytics {
		t.Fatalf("want analytics ShedError, got %v", err)
	}

	// An interactive request displaces the queued analytics waiter.
	interactiveErr := make(chan error, 1)
	go func() {
		gi, err := c.Admit(context.Background(), Request{Class: ClassInteractive})
		if err == nil {
			gi.Release()
		}
		interactiveErr <- err
	}()
	if err := <-analyticsErr; !errors.As(err, &se) {
		t.Fatalf("queued analytics should be displaced with ShedError, got %v", err)
	}
	g.Release() // admits the interactive waiter
	if err := <-interactiveErr; err != nil {
		t.Fatalf("interactive waiter: %v", err)
	}
}

func TestInteractiveAdmitsBeforeQueuedAnalytics(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 10, MaxQueueWait: time.Minute})
	g, err := c.Admit(context.Background(), Request{Class: ClassAnalytics})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(kind string) {
		mu.Lock()
		order = append(order, kind)
		mu.Unlock()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		ga, err := c.Admit(context.Background(), Request{Class: ClassAnalytics})
		if err != nil {
			t.Errorf("analytics admit: %v", err)
			return
		}
		record("analytics")
		ga.Release()
	}()
	waitQueueDepth(t, c, 1)
	go func() {
		defer wg.Done()
		gi, err := c.Admit(context.Background(), Request{Class: ClassInteractive})
		if err != nil {
			t.Errorf("interactive admit: %v", err)
			return
		}
		record("interactive")
		gi.Release()
	}()
	waitQueueDepth(t, c, 2)
	g.Release()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "interactive" {
		t.Fatalf("admission order %v: interactive must go first despite arriving later", order)
	}
}

func TestAdmitRespectsCallerContext(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueueWait: time.Minute})
	g, err := c.Admit(context.Background(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, Request{})
		got <- err
	}()
	waitQueueDepth(t, c, 1)
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitQueueDepth(t, c, 0)
	g.Release()
	// No residue: releasing the only grant leaves a clean controller.
	snap := c.Snapshot()
	if snap.Active != 0 || snap.QueueDepth != 0 || snap.Interactive != 0 {
		t.Fatalf("residual state after abandon: %+v", snap)
	}
}

func TestClassify(t *testing.T) {
	c := New(Config{InteractiveCutoff: 100})
	if got := c.Classify(100); got != ClassInteractive {
		t.Fatalf("at cutoff: %s", got)
	}
	if got := c.Classify(101); got != ClassAnalytics {
		t.Fatalf("above cutoff: %s", got)
	}
}

func TestPace(t *testing.T) {
	c := New(Config{})
	// Nil grant: plain ctx probe.
	var g *Grant
	if err := g.Pace(context.Background()); err != nil {
		t.Fatalf("nil grant pace: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Pace(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil grant pace on cancelled ctx: %v", err)
	}
	// Analytics grant under interactive pressure still honors ctx.
	ga, err := c.Admit(context.Background(), Request{Class: ClassAnalytics})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := c.Admit(context.Background(), Request{Class: ClassInteractive})
	if err != nil {
		t.Fatal(err)
	}
	if err := ga.Pace(context.Background()); err != nil {
		t.Fatalf("pace under pressure: %v", err)
	}
	if err := ga.Pace(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pace must surface cancellation first: %v", err)
	}
	gi.Release()
	ga.Release()
}

func TestPaceFuncAndContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if got := TenantFrom(ctx); got != DefaultTenant {
		t.Fatalf("default tenant: %q", got)
	}
	ctx = WithTenant(ctx, "alice")
	if got := TenantFrom(ctx); got != "alice" {
		t.Fatalf("tenant: %q", got)
	}
	if g := GrantFrom(ctx); g != nil {
		t.Fatalf("unexpected grant: %v", g)
	}
	c := New(Config{})
	g, err := c.Admit(ctx, Request{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx = WithGrant(ctx, g)
	if GrantFrom(ctx) != g {
		t.Fatal("grant did not round-trip through ctx")
	}
	pace := PaceFunc(ctx)
	if err := pace(ctx); err != nil {
		t.Fatalf("pace func: %v", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := pace(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pace func cancellation: %v", err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"65536", 65536, false},
		{"1kb", 1000, false},
		{"1KiB", 1024, false},
		{"512MiB", 512 << 20, false},
		{"1.5GiB", 3 << 29, false},
		{"2GB", 2_000_000_000, false},
		{"64mb", 64_000_000, false},
		{"128B", 128, false},
		{"", 0, true},
		{"-1", 0, true},
		{"xMB", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.err != (err != nil) {
			t.Fatalf("ParseBytes(%q) err=%v, want err=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParseBytes(%q)=%d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestParseTenantQuotas(t *testing.T) {
	q, err := ParseTenantQuotas("dash=16,64MiB,2e6; batch=2,256MiB,0")
	if err != nil {
		t.Fatal(err)
	}
	if got := q["dash"]; got != (Quota{MaxConcurrent: 16, MemBudget: 64 << 20, MaxCostSamples: 2_000_000}) {
		t.Fatalf("dash quota: %+v", got)
	}
	if got := q["batch"]; got != (Quota{MaxConcurrent: 2, MemBudget: 256 << 20}) {
		t.Fatalf("batch quota: %+v", got)
	}
	if q, err := ParseTenantQuotas(""); err != nil || q != nil {
		t.Fatalf("empty quotas: %v %v", q, err)
	}
	for _, bad := range []string{"noequals", "a=1,2", "a=1,2,3,4", "a=-1,0,0", "a=1,zz,0", "a=1,0,-5", "a=1,0,0;a=2,0,0"} {
		if _, err := ParseTenantQuotas(bad); err == nil {
			t.Fatalf("ParseTenantQuotas(%q) should fail", bad)
		}
	}
}

// TestConcurrentAdmitRelease hammers the controller from many goroutines
// (run under -race in CI): counters must balance and nothing may leak.
func TestConcurrentAdmitRelease(t *testing.T) {
	c := New(Config{MaxConcurrent: 4, MemBudget: 1 << 20, MaxQueue: 64, MaxQueueWait: 5 * time.Second,
		Tenants: map[string]Quota{"t1": {MaxConcurrent: 2}, "t2": {MemBudget: 256 << 10}}})
	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%3)
			class := ClassInteractive
			if i%2 == 0 {
				class = ClassAnalytics
			}
			for j := 0; j < 50; j++ {
				g, err := c.Admit(context.Background(), Request{Tenant: tenant, Class: class, EstMem: 1 << 10})
				if err != nil {
					var se *ShedError
					if !errors.As(err, &se) {
						t.Errorf("unexpected admit error: %v", err)
						return
					}
					shed.Add(1)
					continue
				}
				admitted.Add(1)
				_ = g.Pace(context.Background())
				g.Release()
			}
		}(i)
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Active != 0 || snap.ActiveMemBytes != 0 || snap.QueueDepth != 0 || snap.Interactive != 0 {
		t.Fatalf("residual state: %+v", snap)
	}
	var totAdmitted, totShed uint64
	for _, ts := range snap.Tenants {
		totAdmitted += ts.Admitted
		totShed += ts.Shed
		if ts.Active != 0 || ts.ActiveMemBytes != 0 {
			t.Fatalf("tenant residue: %+v", ts)
		}
	}
	if int64(totAdmitted) != admitted.Load() || int64(totShed) != shed.Load() {
		t.Fatalf("counter mismatch: snap %d/%d vs local %d/%d", totAdmitted, totShed, admitted.Load(), shed.Load())
	}
	if admitted.Load()+shed.Load() != 16*50 {
		t.Fatalf("requests unaccounted for: %d admitted + %d shed != 800", admitted.Load(), shed.Load())
	}
}

func waitQueueDepth(t *testing.T, c *Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (now %d)", want, c.Snapshot().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
