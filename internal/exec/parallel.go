package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vap/internal/govern"
)

// PanicError is a panic recovered on one of a Team's or ForEach's workers
// or in an Engine computation, returned as the loop's or the call's error.
// Error() gives only the panic value — it may reach a client — and Stack
// keeps the goroutine's stack at the point of the panic, so the fault can
// be located from the running process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic in task: %v", e.Value)
}

// ForEach runs fn(i) for every i in [0, n) across up to workers
// goroutines, the caller's among them: it is Run on a team that lives for
// this one pass. Iterations are handed out dynamically (an atomic cursor),
// so imbalanced work — e.g. the triangular rows of a distance matrix —
// spreads evenly. The first error cancels the remaining iterations and is
// returned; ctx cancellation stops scheduling new iterations and returns
// ctx's error. With workers <= 1 (or n <= 1) the loop runs inline on the
// calling goroutine, which keeps single-core and benchmark-baseline paths
// allocation-free.
//
// The per-iteration cancellation probe goes through govern.PaceFunc: work
// running under an admitted analytics grant additionally yields between
// iterations while interactive requests are in flight, so wide fan-outs
// cannot monopolize the cores against cheap reads.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 1 || n == 1 {
		return serial(ctx, n, fn)
	}
	t := NewTeam(min(workers, n))
	defer t.Close()
	return t.Run(ctx, n, fn)
}

// serial is ForEach's inline loop: the calling goroutine alone, with no
// panic recovery, so a panic reaches the caller's own.
func serial(ctx context.Context, n int, fn func(i int) error) error {
	pace := govern.PaceFunc(ctx)
	for i := 0; i < n; i++ {
		if err := pace(ctx); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// idlePoll is how long a helper polls for the next pass, yielding with
// runtime.Gosched between looks, before it blocks on its channel. Waking a
// parked goroutine means waking a parked vCPU: on a 2-vCPU Firecracker
// host the second worker of a fresh fan-out started a median 55.6 µs
// after it (p10 54 µs, p90 198 µs, over 500 fan-outs of the t-SNE pair
// pass, whose passes are ≈ 160 µs of work apart by a few µs of serial
// update). Polling for about the p90 wake means a gap shorter than a wake
// costs no wake, and a longer one costs at most twice what blocking at
// once would have. The caller waits for the helpers that joined its pass
// the same way.
const idlePoll = 200 * time.Microsecond

// Team is a set of helper goroutines that work the passes of one
// computation with its caller, started once instead of once per pass. An
// iterative kernel whose passes are short — t-SNE's 500 pair passes of
// ≈ 160 µs each — would otherwise pay a goroutine start, and with it a
// parked core's wake-up, on every pass (see idlePoll).
//
// Run calls must not overlap, and none may follow Close.
type Team struct {
	job     atomic.Pointer[pass] // the latest pass, or closedPass
	helpers []*helper
	wg      sync.WaitGroup
}

// helper is one helper goroutine's parking state: parked is set while it
// is about to block on, or blocked on, wake, and whoever clears it owes
// the goroutine one token on wake. A helper starts parked.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// closedPass is published by Close; a helper that sees it returns.
var closedPass = new(pass)

// NewTeam starts workers-1 helper goroutines; the goroutine that calls
// Run is the team's last worker. With workers <= 1 it starts none, and Run
// is ForEach's inline loop.
func NewTeam(workers int) *Team {
	t := &Team{}
	for w := 1; w < workers; w++ {
		h := &helper{wake: make(chan struct{}, 1)}
		h.parked.Store(true)
		t.helpers = append(t.helpers, h)
		t.wg.Add(1)
		go t.help(h)
	}
	return t
}

// Run runs fn(i) for every i in [0, n) on the team and the calling
// goroutine, with ForEach's contract: items come off one atomic cursor,
// every goroutine paces and probes ctx before each item, the first error
// (a panic becoming a *PanicError with its stack) stops the pass and is
// returned. It returns once every item it handed out has finished.
func (t *Team) Run(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if len(t.helpers) == 0 || n == 1 {
		return serial(ctx, n, fn)
	}
	p := &pass{ctx: ctx, pace: govern.PaceFunc(ctx), n: n, fn: fn, left: make(chan struct{})}
	if t.publish(p) {
		// A woken helper takes this P's next-to-run slot, which an idle P
		// steals from only after a timed back-off, while this goroutine
		// keeps the P busy: on 2 vCPUs that cost a 0.1-0.6 ms one-pass
		// fan-out 35-55 µs at the median. An empty goroutine takes the
		// slot instead, and the helper waits in the P's run queue, from
		// where an idle P takes it at once. (Yielding this P to the helper
		// instead made two concurrent fan-outs half again as slow.)
		go func() {}()
	}
	p.work()
	// Seal the pass: no helper joins it from here on, and the ones that
	// did are waited for. A helper that reaches it later finds it sealed
	// and waits for the next.
	if p.state.Add(sealed) != sealed {
		p.await()
	}
	return p.first
}

// Close stops the helpers and waits for them to exit. A helper stops
// between passes, so a pass in flight is not cut short.
func (t *Team) Close() {
	t.publish(closedPass)
	t.wg.Wait()
}

// publish makes p the team's job, wakes the helpers parked for one and
// reports whether there were any.
func (t *Team) publish(p *pass) (woke bool) {
	t.job.Store(p)
	for _, h := range t.helpers {
		if h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
			woke = true
		}
	}
	return woke
}

// help is a helper goroutine: it joins every pass it reaches before the
// caller seals it, until Close.
func (t *Team) help(h *helper) {
	defer t.wg.Done()
	<-h.wake
	var last *pass
	for p := t.job.Load(); p != closedPass; p = t.next(h, last) {
		last = p
		if p.join() {
			p.work()
			p.leave()
		}
	}
}

// next returns the first job published after last: polled for idlePoll,
// then waited for on h.wake. Holding last keeps its address from being
// reused by a later pass.
func (t *Team) next(h *helper, last *pass) *pass {
	for start := time.Now(); time.Since(start) < idlePoll; runtime.Gosched() {
		if p := t.job.Load(); p != last {
			return p
		}
	}
	h.parked.Store(true)
	if p := t.job.Load(); p != last {
		// Published meanwhile. If the publisher already cleared parked,
		// its token is on the way: take it, so none is left for later.
		if !h.parked.CompareAndSwap(true, false) {
			<-h.wake
		}
		return p
	}
	<-h.wake
	return t.job.Load()
}

// sealed is the bit of pass.state the caller sets when it has run out of
// items; the bits below it count the helpers working the pass.
const sealed = 1 << 32

// pass is one Run: the items, the cursor that hands them out and the first
// error. Every pass is a new value, so nothing a straggler from one pass
// touches belongs to the next.
type pass struct {
	ctx  context.Context
	pace func(context.Context) error
	n    int
	fn   func(i int) error

	cursor  atomic.Int64
	stop    atomic.Bool
	firstMu sync.Mutex
	first   error

	state atomic.Int64  // sealed | helpers working the pass
	left  chan struct{} // closed when the last helper leaves a sealed pass
}

// join admits a helper to the pass unless the caller has sealed it.
func (p *pass) join() bool {
	for {
		s := p.state.Load()
		if s&sealed != 0 {
			return false
		}
		if p.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// leave ends a helper's share of the pass, and tells a caller waiting on
// a sealed pass when it was the last.
func (p *pass) leave() {
	if p.state.Add(-1) == sealed {
		close(p.left)
	}
}

// await waits until every helper that joined the sealed pass has left:
// polled for idlePoll, then blocked on.
func (p *pass) await() {
	for start := time.Now(); time.Since(start) < idlePoll; runtime.Gosched() {
		if p.state.Load() == sealed {
			return
		}
	}
	<-p.left
}

func (p *pass) fail(err error) {
	p.firstMu.Lock()
	if p.first == nil {
		p.first = err
	}
	p.firstMu.Unlock()
	p.stop.Store(true)
}

// work takes items until the cursor runs out, the pass stops or ctx ends.
func (p *pass) work() {
	// A panic on a bare helper goroutine would kill the whole process; on
	// the serial path the caller's own recovery (e.g. net/http's handler
	// recover) would have contained it. Convert it to an error — one that
	// keeps the stack — on every worker, the caller too, so all paths
	// degrade the same way.
	defer func() {
		if r := recover(); r != nil {
			p.fail(&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	done := p.ctx.Done()
	for {
		if p.stop.Load() {
			return
		}
		select {
		case <-done:
			p.fail(p.ctx.Err())
			return
		default:
		}
		if err := p.pace(p.ctx); err != nil {
			p.fail(err)
			return
		}
		i := int(p.cursor.Add(1)) - 1
		if i >= p.n {
			return
		}
		if err := p.fn(i); err != nil {
			p.fail(err)
			return
		}
	}
}

// ForEachChunk splits [0, n) into roughly workers*4 contiguous chunks and
// runs fn(lo, hi) for each, parallelized like ForEach. Use it when per-item
// work is tiny and the per-iteration dispatch of ForEach would dominate
// (e.g. KDE raster row bands).
func ForEachChunk(ctx context.Context, n, workers int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = 1
	}
	chunks := workers * 4
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	return ForEach(ctx, chunks, workers, func(c int) error {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return nil
		}
		return fn(lo, hi)
	})
}
