package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Cached reports whether key currently has a cached value, without
// touching recency or counters.
func (e *Engine) Cached(key Key) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.byKey[key]
	return ok
}

func TestKeyOfCanonical(t *testing.T) {
	a := KeyOf(1, "typical", []int64{1, 2, 3}, "pearson")
	b := KeyOf(1, "typical", []int64{1, 2, 3}, "pearson")
	if a != b {
		t.Fatalf("identical parts produced different keys: %v vs %v", a, b)
	}
	if c := KeyOf(2, "typical", []int64{1, 2, 3}, "pearson"); c == a {
		t.Fatal("version bump did not change the key")
	}
	if c := KeyOf(1, "shift", []int64{1, 2, 3}, "pearson"); c == a {
		t.Fatal("kind change did not change the key")
	}
	if c := KeyOf(1, "typical", []int64{1, 2, 4}, "pearson"); c == a {
		t.Fatal("parameter change did not change the key")
	}
	// The separator must keep adjacent parts from gluing together.
	if KeyOf(1, "k", "ab", "c") == KeyOf(1, "k", "a", "bc") {
		t.Fatal("part boundaries are ambiguous")
	}
}

func TestDoCachesSuccess(t *testing.T) {
	e := New(Options{Workers: 2, CacheEntries: 8})
	key := KeyOf(1, "t", "x")
	var calls atomic.Int64
	compute := func(context.Context) (any, error) {
		calls.Add(1)
		return 42, nil
	}
	for i := 0; i < 5; i++ {
		v, err := e.Do(context.Background(), key, compute)
		if err != nil || v.(int) != 42 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := e.Stats()
	if st.Computes != 1 || st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 compute / 4 hits / 1 miss", st)
	}
}

func TestDoDoesNotCacheErrors(t *testing.T) {
	e := New(Options{})
	key := KeyOf(1, "t", "x")
	boom := errors.New("boom")
	var calls atomic.Int64
	compute := func(context.Context) (any, error) {
		calls.Add(1)
		return nil, boom
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Do(context.Background(), key, compute); !errors.Is(err, boom) {
			t.Fatalf("Do err = %v, want boom", err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("errors were cached: compute ran %d times, want 3", got)
	}
}

func TestDoSingleflight(t *testing.T) {
	e := New(Options{Workers: 4, CacheEntries: 8})
	key := KeyOf(7, "t", "shared")
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
				calls.Add(1)
				<-gate
				return 99, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			results[i] = v.(int)
		}(i)
	}
	// Let the leader start and the others pile up, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times under contention, want 1", got)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("waiter %d got %d, want 99", i, v)
		}
	}
	if st := e.Stats(); st.Dedups == 0 {
		t.Fatalf("stats = %+v, expected deduplicated joiners", st)
	}
}

func TestDoLeaderCancelRetry(t *testing.T) {
	e := New(Options{})
	key := KeyOf(1, "t", "retry")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	leaderDone := make(chan error, 1)
	go func() {
		_, err := e.Do(leaderCtx, key, func(ctx context.Context) (any, error) {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderDone <- err
	}()
	<-started
	// A second caller joins the flight, then the leader dies; the joiner
	// must retry and compute its own (successful) result.
	joinerDone := make(chan struct{})
	go func() {
		defer close(joinerDone)
		v, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
			return "recomputed", nil
		})
		if err != nil || v.(string) != "recomputed" {
			t.Errorf("joiner got %v, %v; want recomputed", v, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want canceled", err)
	}
	select {
	case <-joinerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("joiner never recovered from leader cancellation")
	}
}

func TestDoRespectsCallerContext(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Do(ctx, KeyOf(1, "t", "c"), func(context.Context) (any, error) {
		t.Fatal("compute ran despite cancelled context")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Options{CacheEntries: 3})
	mk := func(i int) Key { return KeyOf(1, "t", i) }
	for i := 0; i < 5; i++ {
		i := i
		if _, err := e.Do(context.Background(), mk(i), func(context.Context) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", e.Len())
	}
	if e.Cached(mk(0)) || e.Cached(mk(1)) {
		t.Fatal("oldest entries were not evicted")
	}
	for i := 2; i < 5; i++ {
		if !e.Cached(mk(i)) {
			t.Fatalf("entry %d missing, want newest 3 retained", i)
		}
	}
	if st := e.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	// Touching an old entry protects it from the next eviction.
	if _, err := e.Do(context.Background(), mk(2), func(context.Context) (any, error) { return nil, errors.New("must hit cache") }); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), mk(9), func(context.Context) (any, error) { return 9, nil }); err != nil {
		t.Fatal(err)
	}
	if !e.Cached(mk(2)) {
		t.Fatal("recently used entry was evicted")
	}
	if e.Cached(mk(3)) {
		t.Fatal("least recently used entry survived")
	}
}

func TestInvalidate(t *testing.T) {
	e := New(Options{})
	key := KeyOf(1, "t", "x")
	if _, err := e.Do(context.Background(), key, func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	e.Invalidate()
	if e.Cached(key) || e.Len() != 0 {
		t.Fatal("Invalidate left cached entries")
	}
}

func TestForEachCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 1000
		seen := make([]atomic.Int32, n)
		err := ForEach(context.Background(), n, workers, func(i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := ForEach(context.Background(), 10000, 4, func(i int) error {
		if i == 17 {
			return boom
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran.Load() >= 10000 {
		t.Fatal("error did not stop remaining iterations")
	}
}

func TestForEachHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 1<<20, 4, func(i int) error {
		if ran.Add(1) == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if ran.Load() >= 1<<20 {
		t.Fatal("cancellation did not stop the loop")
	}
}

func TestForEachChunkCoversAll(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		covered := make([]bool, n)
		var mu sync.Mutex
		err := ForEachChunk(context.Background(), n, 4, func(lo, hi int) error {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				if covered[i] {
					return fmt.Errorf("index %d covered twice", i)
				}
				covered[i] = true
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d: index %d never covered", n, i)
			}
		}
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	err := ForEach(context.Background(), 100, 4, func(i int) error {
		if i == 13 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("worker panic not converted to error, got %v", err)
	}
}

// TestForEachPanicKeepsStack: the error a worker panic turns into is a
// typed PanicError whose stack names the function that panicked, while its
// message carries the panic value only.
func TestForEachPanicKeepsStack(t *testing.T) {
	err := ForEach(context.Background(), 100, 4, func(i int) error {
		if i == 13 {
			explode()
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("worker panic returned %T (%v), want *PanicError", err, err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("Value = %v, want kaboom", pe.Value)
	}
	if !contains(string(pe.Stack), "exec.explode") {
		t.Errorf("stack does not name the panicking function:\n%s", pe.Stack)
	}
	if contains(pe.Error(), "goroutine") {
		t.Errorf("Error() leaks the stack: %q", pe.Error())
	}
}

//go:noinline
func explode() { panic("kaboom") }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
