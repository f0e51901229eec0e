package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"vap/internal/govern"
)

// PanicError is a panic recovered on one of ForEach's worker goroutines or
// in an Engine computation, returned as the loop's or the call's error.
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
// goroutines. Iterations are handed out dynamically (an atomic cursor), so
// imbalanced work — e.g. the triangular rows of a distance matrix —
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
	pace := govern.PaceFunc(ctx)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
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
	var (
		cursor  atomic.Int64
		stop    atomic.Bool
		firstMu sync.Mutex
		first   error
		wg      sync.WaitGroup
	)
	fail := func(err error) {
		firstMu.Lock()
		if first == nil {
			first = err
		}
		firstMu.Unlock()
		stop.Store(true)
	}
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// A panic on a bare worker goroutine would kill the whole
			// process; on the serial path the caller's own recovery (e.g.
			// net/http's handler recover) would have contained it. Convert
			// it to an error — one that keeps the stack — so both paths
			// degrade the same way.
			defer func() {
				if r := recover(); r != nil {
					fail(&PanicError{Value: r, Stack: debug.Stack()})
				}
			}()
			for {
				if stop.Load() {
					return
				}
				select {
				case <-done:
					fail(ctx.Err())
					return
				default:
				}
				if err := pace(ctx); err != nil {
					fail(err)
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
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
