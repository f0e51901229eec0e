// Package govern is VAP's multi-tenant resource-governance layer: an
// admission controller the query and ingest front doors pass every
// request through before it reaches the execution engine.
//
// Each request declares a tenant (HTTP header / flag, "default" when
// absent) and carries a class — interactive or analytics, inferred from
// the planner's cost estimates for queries, ingest for writes. The
// controller enforces:
//
//   - per-tenant and global concurrency plus in-flight memory budgets:
//     a request that does not fit waits in a priority queue ordered by
//     class (interactive ahead of ingest ahead of analytics), so cheap
//     dashboard reads never wait behind monster scans;
//   - per-tenant cost ceilings: a query whose estimated samples (or
//     estimated in-flight memory) exceed the tenant's ceiling is
//     rejected up front with a typed *CostError ("query too expensive,
//     est=N") — it never queues and never touches the exec engine;
//   - overload shedding: when the queue is full or a waiter has waited
//     past the bound, the lowest-priority work is shed with a typed
//     *ShedError carrying a Retry-After hint (HTTP 429), instead of
//     stacking goroutines until the process OOMs;
//   - execution pacing: admitted analytics grants yield inside the
//     executor's batch loop (Grant.Pace) whenever interactive work is
//     active or queued, bounding cheap-query tail latency even while a
//     monster scan is running.
//
// The controller is deliberately storage-agnostic: callers translate
// planner estimates into Request fields, so the package depends only on
// the standard library.
package govern

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Class ranks a request for admission priority.
type Class string

const (
	// ClassInteractive: cheap reads (dashboard queries under the cost
	// cutoff). Admitted ahead of everything else; their presence paces
	// running analytics scans.
	ClassInteractive Class = "interactive"
	// ClassIngest: writes. Ahead of analytics (data loss hurts more than
	// a slow report) but behind interactive reads.
	ClassIngest Class = "ingest"
	// ClassAnalytics: expensive scans. Admitted last, shed first, and
	// paced while interactive work is in flight.
	ClassAnalytics Class = "analytics"
	// ClassConn marks connection-admission rejections (the wire
	// protocol's max-connections gate); it never enters the statement
	// queue.
	ClassConn Class = "connection"
)

// classRank orders classes for the admission queue and the shedding
// policy: lower admits first, higher sheds first.
func classRank(c Class) int {
	switch c {
	case ClassInteractive:
		return 0
	case ClassIngest:
		return 1
	default:
		return 2
	}
}

// DefaultTenant is the tenant requests fall under when they declare none.
const DefaultTenant = "default"

// Quota bounds one tenant. Zero fields inherit the controller-wide value
// (concurrency, memory) or mean unlimited (cost ceiling).
type Quota struct {
	// MaxConcurrent bounds the tenant's concurrently admitted requests
	// (0 = the controller's global bound only).
	MaxConcurrent int
	// MemBudget bounds the tenant's estimated in-flight bytes
	// (0 = the controller's global budget only).
	MemBudget int64
	// MaxCostSamples rejects any single query whose estimated decoded
	// samples exceed it (0 = no per-query ceiling).
	MaxCostSamples int64
}

// Config tunes a Controller. The zero value selects production-safe
// defaults sized to the host.
type Config struct {
	// MaxConcurrent is the global concurrently-admitted request bound
	// (<= 0 selects 4 x GOMAXPROCS).
	MaxConcurrent int
	// MemBudget is the global estimated in-flight memory bound in bytes
	// (<= 0 selects 512 MiB).
	MemBudget int64
	// Tenants maps tenant names to explicit quotas; a tenant absent from
	// it runs under the zero Quota, the global bounds alone.
	Tenants map[string]Quota
	// MaxQueue bounds the admission queue; beyond it the lowest-priority
	// work is shed (<= 0 selects 256).
	MaxQueue int
	// MaxQueueWait sheds a waiter that has queued this long (<= 0
	// selects 5s) — bounded queueing, not unbounded goroutine stacking.
	MaxQueueWait time.Duration
	// InteractiveCutoff classifies queries: estimated samples at or
	// below it are interactive, above analytics (<= 0 selects 2M —
	// roughly 20ms of vectorized decode).
	InteractiveCutoff int64
	// MaxConns bounds concurrently open long-lived client connections
	// (the wire-protocol front door calls ConnOpen per accepted
	// connection, before any handshake crypto, so a connection flood is
	// bounded up front). <= 0 means unlimited — the HTTP front door
	// bounds connections with its own server timeouts.
	MaxConns int
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MemBudget <= 0 {
		c.MemBudget = 512 << 20
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 5 * time.Second
	}
	if c.InteractiveCutoff <= 0 {
		c.InteractiveCutoff = 2_000_000
	}
}

// retryAfter is the hint shed responses carry.
const retryAfter = time.Second

// CostError is the typed up-front rejection for a query whose estimate
// exceeds its tenant's ceiling. It maps to HTTP 422: retrying without
// narrowing the query cannot succeed.
type CostError struct {
	Tenant string
	// Est / Ceiling are estimated decoded samples when the sample
	// ceiling rejected the query.
	Est, Ceiling int64
	// EstMem / MemBudget are set instead when the query's estimated
	// in-flight memory alone exceeds the budget it would run under.
	EstMem, MemBudget int64
}

func (e *CostError) Error() string {
	if e.MemBudget > 0 {
		return fmt.Sprintf("govern: query too expensive, est=%d bytes in flight exceeds tenant %q memory budget %d",
			e.EstMem, e.Tenant, e.MemBudget)
	}
	return fmt.Sprintf("govern: query too expensive, est=%d samples exceeds tenant %q cost ceiling %d",
		e.Est, e.Tenant, e.Ceiling)
}

// ShedError is the typed overload rejection: the queue was full (or the
// wait bound expired) and this request was the lowest-priority work. It
// maps to HTTP 429 with Retry-After.
type ShedError struct {
	Tenant     string
	Class      Class
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("govern: overloaded, %s request for tenant %q shed (%s); retry after %s",
		e.Class, e.Tenant, e.Reason, e.RetryAfter)
}

// Request describes one unit of work asking for admission.
type Request struct {
	Tenant string
	// Class is the admission class; empty lets the controller classify
	// from EstSamples.
	Class Class
	// EstSamples is the planner's decoded-sample estimate (0 for
	// ingest).
	EstSamples int64
	// EstMem is the estimated peak in-flight bytes while the request
	// runs; reserved against the memory budgets until Release.
	EstMem int64
}

// waitBuckets are the queue-wait histogram upper bounds; the last bucket
// is unbounded.
var waitBuckets = []time.Duration{
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second, 10 * time.Second,
}

// WaitBucketLabels names the histogram buckets Snapshot reports, aligned
// with TenantSnapshot.QueueWaitHist.
var WaitBucketLabels = []string{"<1ms", "<10ms", "<100ms", "<1s", "<10s", ">=10s"}

// tenantState is one tenant's live accounting. Guarded by Controller.mu.
type tenantState struct {
	quota     Quota
	active    int
	activeMem int64

	admitted, queued, shed, rejected uint64
	waitHist                         [6]uint64
	maxWait                          time.Duration

	// conns is the tenant's open wire-protocol connections (bound post-
	// auth via ConnBind); connShed counts rejected connection attempts.
	conns int
}

// waiter is one queued admission request.
type waiter struct {
	req   Request
	rank  int
	seq   uint64
	enq   time.Time
	timer *time.Timer
	ready chan waitResult
	idx   int // heap index; -1 once dispatched or shed
}

type waitResult struct {
	grant *Grant
	err   error
}

// waitHeap orders waiters by (class rank, arrival): strict class
// priority, FIFO within a class.
type waitHeap []*waiter

func (h waitHeap) Len() int { return len(h) }
func (h waitHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h waitHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *waitHeap) Push(x any) {
	w := x.(*waiter)
	w.idx = len(*h)
	*h = append(*h, w)
}
func (h *waitHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.idx = -1
	*h = old[:n-1]
	return w
}

// Controller is the admission controller. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu        sync.Mutex
	seq       uint64
	active    int
	activeMem int64
	tenants   map[string]*tenantState
	queue     waitHeap
	conns     int
	connsShed uint64

	// pressure counts interactive requests admitted or queued — the
	// lock-free signal analytics grants pace on.
	pressure atomic.Int64
}

// New returns a controller with cfg (zero value = defaults).
func New(cfg Config) *Controller {
	cfg.defaults()
	return &Controller{cfg: cfg, tenants: make(map[string]*tenantState)}
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Classify maps a planner sample estimate onto an admission class.
func (c *Controller) Classify(estSamples int64) Class {
	if estSamples > c.cfg.InteractiveCutoff {
		return ClassAnalytics
	}
	return ClassInteractive
}

func (c *Controller) tenantLocked(name string) *tenantState {
	ts, ok := c.tenants[name]
	if !ok {
		ts = &tenantState{quota: c.cfg.Tenants[name]}
		c.tenants[name] = ts
	}
	return ts
}

// memBudgetFor returns the tightest memory budget req would run under.
func (c *Controller) memBudgetFor(ts *tenantState) int64 {
	b := c.cfg.MemBudget
	if q := ts.quota.MemBudget; q > 0 && (b <= 0 || q < b) {
		b = q
	}
	return b
}

func (c *Controller) fitsLocked(ts *tenantState, req Request) bool {
	if c.active >= c.cfg.MaxConcurrent {
		return false
	}
	if c.cfg.MemBudget > 0 && c.activeMem+req.EstMem > c.cfg.MemBudget {
		return false
	}
	if q := ts.quota.MaxConcurrent; q > 0 && ts.active >= q {
		return false
	}
	if q := ts.quota.MemBudget; q > 0 && ts.activeMem+req.EstMem > q {
		return false
	}
	return true
}

// admitLocked books req as active and returns its grant. wait is the
// time spent queued (0 for fast-path admissions).
func (c *Controller) admitLocked(ts *tenantState, req Request, wait time.Duration) *Grant {
	c.active++
	c.activeMem += req.EstMem
	ts.active++
	ts.activeMem += req.EstMem
	ts.admitted++
	bi := len(waitBuckets)
	for i, ub := range waitBuckets {
		if wait < ub {
			bi = i
			break
		}
	}
	ts.waitHist[bi]++
	if wait > ts.maxWait {
		ts.maxWait = wait
	}
	return &Grant{c: c, tenant: req.Tenant, class: req.Class, mem: req.EstMem}
}

// Admit grants req admission, queuing it (class-priority, FIFO within a
// class) while it does not fit the concurrency or memory budgets.
// Typed failures: *CostError when the request exceeds a per-query
// ceiling (never queues), *ShedError when overload shed it (queue full,
// wait bound exceeded, or displaced by higher-priority work), or ctx's
// error when the caller gave up first. The returned grant must be
// Released exactly once; Release is idempotent.
func (c *Controller) Admit(ctx context.Context, req Request) (*Grant, error) {
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}
	if req.Class == "" {
		req.Class = c.Classify(req.EstSamples)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	c.mu.Lock()
	ts := c.tenantLocked(req.Tenant)
	// Cost ceilings reject before any queueing: a query that can never
	// run must not occupy a queue slot (or shed somebody else).
	if q := ts.quota.MaxCostSamples; q > 0 && req.EstSamples > q {
		ts.rejected++
		c.mu.Unlock()
		return nil, &CostError{Tenant: req.Tenant, Est: req.EstSamples, Ceiling: q}
	}
	if mb := c.memBudgetFor(ts); mb > 0 && req.EstMem > mb {
		ts.rejected++
		c.mu.Unlock()
		return nil, &CostError{Tenant: req.Tenant, EstMem: req.EstMem, MemBudget: mb}
	}
	if req.Class == ClassInteractive {
		c.pressure.Add(1)
	}
	if c.fitsLocked(ts, req) {
		g := c.admitLocked(ts, req, 0)
		c.mu.Unlock()
		return g, nil
	}

	// Queue. A full queue sheds the lowest-priority work: the newcomer
	// when nothing waiting ranks below it, the worst waiter otherwise.
	if len(c.queue) >= c.cfg.MaxQueue {
		worst := c.worstLocked()
		if worst == nil || classRank(req.Class) >= worst.rank {
			ts.shed++
			if req.Class == ClassInteractive {
				c.pressure.Add(-1)
			}
			c.mu.Unlock()
			return nil, &ShedError{Tenant: req.Tenant, Class: req.Class, Reason: "admission queue full", RetryAfter: retryAfter}
		}
		c.shedLocked(worst, "displaced by higher-priority work")
	}
	w := &waiter{req: req, rank: classRank(req.Class), seq: c.seq, enq: time.Now(), ready: make(chan waitResult, 1)}
	c.seq++
	heap.Push(&c.queue, w)
	ts.queued++
	w.timer = time.AfterFunc(c.cfg.MaxQueueWait, func() { c.expireWaiter(w) })
	c.mu.Unlock()

	select {
	case <-ctx.Done():
		c.abandonWaiter(w)
		return nil, ctx.Err()
	case res := <-w.ready:
		return res.grant, res.err
	}
}

// worstLocked returns the lowest-priority (highest rank, latest arrival)
// waiter, or nil when the queue is empty.
func (c *Controller) worstLocked() *waiter {
	var worst *waiter
	for _, w := range c.queue {
		if worst == nil || w.rank > worst.rank || (w.rank == worst.rank && w.seq > worst.seq) {
			worst = w
		}
	}
	return worst
}

// shedLocked removes a queued waiter and completes its Admit with a
// ShedError. Callers hold c.mu.
func (c *Controller) shedLocked(w *waiter, reason string) {
	heap.Remove(&c.queue, w.idx)
	w.timer.Stop()
	ts := c.tenantLocked(w.req.Tenant)
	ts.shed++
	if w.req.Class == ClassInteractive {
		c.pressure.Add(-1)
	}
	w.ready <- waitResult{err: &ShedError{Tenant: w.req.Tenant, Class: w.req.Class, Reason: reason, RetryAfter: retryAfter}}
}

// expireWaiter sheds w if it is still queued when its wait bound fires.
func (c *Controller) expireWaiter(w *waiter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.idx < 0 {
		return // already dispatched or shed
	}
	c.shedLocked(w, fmt.Sprintf("queue wait exceeded %s", c.cfg.MaxQueueWait))
}

// abandonWaiter resolves the race between caller-context cancellation
// and a concurrent dispatch: if w is still queued it is removed quietly;
// if it was already granted, the unclaimed grant is released.
func (c *Controller) abandonWaiter(w *waiter) {
	c.mu.Lock()
	if w.idx >= 0 {
		heap.Remove(&c.queue, w.idx)
		w.timer.Stop()
		if w.req.Class == ClassInteractive {
			c.pressure.Add(-1)
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// Dispatched (or shed) before we abandoned: the buffered channel
	// already holds the result.
	if res := <-w.ready; res.grant != nil {
		res.grant.Release()
	}
}

// dispatchLocked admits every queued waiter that now fits, in priority
// order. A waiter that does not fit (its tenant's quota is still
// exhausted) is skipped rather than blocking the waiters behind it.
// Callers hold c.mu.
func (c *Controller) dispatchLocked() {
	if len(c.queue) == 0 {
		return
	}
	var kept []*waiter
	for len(c.queue) > 0 {
		if c.active >= c.cfg.MaxConcurrent {
			break
		}
		w := heap.Pop(&c.queue).(*waiter)
		ts := c.tenantLocked(w.req.Tenant)
		if !c.fitsLocked(ts, w.req) {
			kept = append(kept, w)
			continue
		}
		w.timer.Stop()
		g := c.admitLocked(ts, w.req, time.Since(w.enq))
		w.ready <- waitResult{grant: g}
	}
	for _, w := range kept {
		heap.Push(&c.queue, w)
	}
}

// ConnOpen is the per-connection admission hook for long-lived
// transports: the wire server calls it for every accepted TCP connection
// BEFORE the handshake, so a connection flood is shed without spending
// any scramble/auth work. It returns a release func the connection's
// goroutine must call exactly once on close, or a *ShedError (class
// "connection") when Config.MaxConns connections are already open.
func (c *Controller) ConnOpen() (func(), error) {
	c.mu.Lock()
	if c.cfg.MaxConns > 0 && c.conns >= c.cfg.MaxConns {
		c.connsShed++
		c.mu.Unlock()
		return nil, &ShedError{
			Tenant: DefaultTenant, Class: ClassConn,
			Reason:     fmt.Sprintf("connection limit %d reached", c.cfg.MaxConns),
			RetryAfter: retryAfter,
		}
	}
	c.conns++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.conns--
			c.mu.Unlock()
		})
	}, nil
}

// ConnBind attributes an admitted connection to its authenticated tenant
// (ConnOpen runs pre-auth, when the tenant is unknown). The returned
// unbind func decrements the tenant's gauge; like ConnOpen's release it
// must be called exactly once and is idempotent.
func (c *Controller) ConnBind(tenant string) func() {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c.mu.Lock()
	c.tenantLocked(tenant).conns++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.tenantLocked(tenant).conns--
			c.mu.Unlock()
		})
	}
}

// Grant is one admitted request's reservation. Release returns its
// concurrency slot and memory reservation; it is idempotent and must be
// called when the work finishes (success or failure).
type Grant struct {
	c        *Controller
	tenant   string
	class    Class
	mem      int64
	released atomic.Bool
}

// Release returns the grant's reservations and dispatches newly fitting
// waiters. Safe to call more than once.
func (g *Grant) Release() {
	if g == nil || !g.released.CompareAndSwap(false, true) {
		return
	}
	c := g.c
	c.mu.Lock()
	ts := c.tenantLocked(g.tenant)
	c.active--
	c.activeMem -= g.mem
	ts.active--
	ts.activeMem -= g.mem
	if g.class == ClassInteractive {
		c.pressure.Add(-1)
	}
	c.dispatchLocked()
	c.mu.Unlock()
}

// paceSleep is how long an analytics grant yields per batch while
// interactive work is in flight: long enough that a queued dashboard
// read gets the CPU, short enough that analytics still advances
// ~5k batches/s under constant interactive pressure.
const paceSleep = 200 * time.Microsecond

// Pace is the executor's per-batch check for an admitted request: it
// returns ctx's error as soon as the deadline or cancellation fires,
// and — for analytics grants — yields the CPU between batches (a
// scheduler yield normally, a short sleep while interactive work is
// active or queued) so monster scans cannot monopolize cores against
// cheap reads. Nil-receiver safe: ungoverned scans just check ctx.
func (g *Grant) Pace(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if g == nil || g.class != ClassAnalytics {
		return nil
	}
	if g.c.pressure.Load() > 0 {
		time.Sleep(paceSleep)
		return ctx.Err()
	}
	runtime.Gosched()
	return nil
}

// TenantSnapshot is one tenant's observable governance state.
type TenantSnapshot struct {
	Admitted       uint64            `json:"admitted"`
	Queued         uint64            `json:"queued"`
	Shed           uint64            `json:"shed"`
	RejectedCost   uint64            `json:"rejected_cost"`
	Active         int               `json:"active"`
	ActiveMemBytes int64             `json:"active_mem_bytes"`
	MaxWaitMS      int64             `json:"max_wait_ms"`
	QueueWaitHist  map[string]uint64 `json:"queue_wait_hist"`
	OpenConns      int               `json:"open_conns"`
}

// Snapshot is the controller's observable state, shaped for /api/stats.
type Snapshot struct {
	MaxConcurrent  int                       `json:"max_concurrent"`
	MemBudgetBytes int64                     `json:"mem_budget_bytes"`
	Active         int                       `json:"active"`
	ActiveMemBytes int64                     `json:"active_mem_bytes"`
	QueueDepth     int                       `json:"queue_depth"`
	Interactive    int64                     `json:"interactive_in_flight"`
	OpenConns      int                       `json:"open_conns"`
	MaxConns       int                       `json:"max_conns"`
	ConnsShed      uint64                    `json:"conns_shed"`
	Tenants        map[string]TenantSnapshot `json:"tenants"`
}

// Snapshot returns a copy of the controller's counters and gauges.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Snapshot{
		MaxConcurrent:  c.cfg.MaxConcurrent,
		MemBudgetBytes: c.cfg.MemBudget,
		Active:         c.active,
		ActiveMemBytes: c.activeMem,
		QueueDepth:     len(c.queue),
		Interactive:    c.pressure.Load(),
		OpenConns:      c.conns,
		MaxConns:       c.cfg.MaxConns,
		ConnsShed:      c.connsShed,
		Tenants:        make(map[string]TenantSnapshot, len(c.tenants)),
	}
	for name, ts := range c.tenants {
		hist := make(map[string]uint64, len(WaitBucketLabels))
		for i, label := range WaitBucketLabels {
			hist[label] = ts.waitHist[i]
		}
		out.Tenants[name] = TenantSnapshot{
			Admitted:       ts.admitted,
			Queued:         ts.queued,
			Shed:           ts.shed,
			RejectedCost:   ts.rejected,
			Active:         ts.active,
			ActiveMemBytes: ts.activeMem,
			MaxWaitMS:      ts.maxWait.Milliseconds(),
			QueueWaitHist:  hist,
			OpenConns:      ts.conns,
		}
	}
	return out
}
