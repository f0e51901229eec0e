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
	_, ok := e.cachedLocked(key)
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
	e := New(Options{Workers: 2})
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
	e := New(Options{Workers: 4})
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

// TestDoPanicReleasesKey: a computation that panics must not poison its
// key. The leader and a joiner waiting on it both return promptly with the
// *PanicError, nothing is cached, a later call computes again (and panics
// again), and a third call computes its value and caches it.
func TestDoPanicReleasesKey(t *testing.T) {
	e := New(Options{})
	key := KeyOf(1, "t", "boom")
	var computes atomic.Int64
	call := func(fn func(context.Context) (any, error)) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := e.Do(context.Background(), key, fn)
			done <- err
		}()
		return done
	}
	wantPanic := func(who string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "kaboom" || !contains(string(pe.Stack), "exec.explode") {
				t.Errorf("%s: err = %v, want the *PanicError of explode", who, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s hung on a computation that panicked", who)
		}
	}
	started, release := make(chan struct{}), make(chan struct{})
	leader := call(func(context.Context) (any, error) {
		computes.Add(1)
		close(started)
		<-release
		explode()
		return nil, nil
	})
	<-started
	joiner := call(func(context.Context) (any, error) {
		t.Error("the joiner computed instead of joining")
		return nil, nil
	})
	for deadline := time.Now().Add(3 * time.Second); e.Stats().Dedups == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the joiner never joined")
		}
	}
	close(release)
	wantPanic("leader", leader)
	wantPanic("joiner", joiner)
	if e.Cached(key) {
		t.Fatal("a panic was cached")
	}
	wantPanic("later call", call(func(context.Context) (any, error) {
		computes.Add(1)
		explode()
		return nil, nil
	}))
	third := make(chan any, 1)
	go func() {
		v, _ := e.Do(context.Background(), key, func(context.Context) (any, error) {
			computes.Add(1)
			return 7, nil
		})
		third <- v
	}()
	select {
	case v := <-third:
		if v != 7 || !e.Cached(key) {
			t.Errorf("third call = %v, cached %v; want 7, cached", v, e.Cached(key))
		}
	case <-time.After(3 * time.Second):
		t.Fatal("third call hung")
	}
	if got := computes.Load(); got != 3 {
		t.Errorf("%d computations, want 3", got)
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

// sized is a test result that reports n bytes.
type sized int64

func (s sized) CacheBytes() int64 { return int64(s) }

// TestLRUEviction: the cache evicts from the LRU tail until its charged
// bytes are at or under cacheBytes. Each value here is charged a quarter of
// the bound, so four fit exactly.
func TestLRUEviction(t *testing.T) {
	e := New(Options{})
	mk := func(i int) Key { return KeyOf(1, "t", i) }
	quarter := sized(cacheBytes/4 - entryBytes)
	put := func(i int) {
		t.Helper()
		if _, err := e.Do(context.Background(), mk(i), func(context.Context) (any, error) { return quarter, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		put(i)
	}
	if e.Len() != 4 || e.Bytes() != cacheBytes {
		t.Fatalf("cache holds %d entries in %d bytes, want 4 in %d", e.Len(), e.Bytes(), cacheBytes)
	}
	if e.Cached(mk(0)) || e.Cached(mk(1)) {
		t.Fatal("oldest entries were not evicted")
	}
	for i := 2; i < 6; i++ {
		if !e.Cached(mk(i)) {
			t.Fatalf("entry %d missing, want the newest 4 retained", i)
		}
	}
	if st := e.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	// Touching an old entry protects it from the next eviction.
	if _, err := e.Do(context.Background(), mk(2), func(context.Context) (any, error) { return nil, errors.New("must hit cache") }); err != nil {
		t.Fatal(err)
	}
	put(-1)
	if !e.Cached(mk(2)) {
		t.Fatal("recently used entry was evicted")
	}
	if e.Cached(mk(3)) {
		t.Fatal("least recently used entry survived")
	}
	// One value of half the bound evicts the two least recently used
	// quarters (4, then 5), not the entry just touched.
	if _, err := e.Do(context.Background(), mk(-2), func(context.Context) (any, error) { return sized(cacheBytes/2 - entryBytes), nil }); err != nil {
		t.Fatal(err)
	}
	for i, want := range map[int]bool{-2: true, -1: true, 2: true, 4: false, 5: false} {
		if e.Cached(mk(i)) != want {
			t.Fatalf("entry %d cached = %v, want %v", i, !want, want)
		}
	}
	if e.Bytes() != cacheBytes {
		t.Fatalf("cache holds %d bytes, want %d", e.Bytes(), cacheBytes)
	}
}

// TestOversizeResultNotCached: a result charged more than the whole bound
// reaches its caller and every joiner, is counted as one eviction, and
// leaves the cache as it was.
func TestOversizeResultNotCached(t *testing.T) {
	e := New(Options{})
	small := KeyOf(1, "t", "small")
	if _, err := e.Do(context.Background(), small, func(context.Context) (any, error) { return sized(100), nil }); err != nil {
		t.Fatal(err)
	}
	held := e.Bytes()
	key := KeyOf(1, "t", "big")
	big := sized(cacheBytes)
	gate := make(chan struct{})
	var calls atomic.Int64
	const callers = 4
	var wg sync.WaitGroup
	got := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Do(context.Background(), key, func(context.Context) (any, error) {
				calls.Add(1)
				<-gate
				return big, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	for e.Stats().Dedups < callers-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	for i, v := range got {
		if v != big {
			t.Fatalf("caller %d got %v, want the oversize value", i, v)
		}
	}
	if e.Cached(key) || !e.Cached(small) || e.Len() != 1 || e.Bytes() != held {
		t.Fatalf("oversize value changed the cache: %d entries, %d bytes (was 1, %d)", e.Len(), e.Bytes(), held)
	}
	if st := e.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestReinsertRecharges: storing a key again replaces its charge instead of
// adding to it.
func TestReinsertRecharges(t *testing.T) {
	e := New(Options{})
	key := KeyOf(1, "t", "x")
	for _, n := range []int64{1000, 300, 5000} {
		e.mu.Lock()
		e.insertLocked(&entry{key: key, val: sized(n)})
		e.mu.Unlock()
		if e.Len() != 1 || e.Bytes() != entryBytes+n {
			t.Fatalf("after storing %d bytes: %d entries, %d bytes; want 1, %d", n, e.Len(), e.Bytes(), entryBytes+n)
		}
	}
	if v, _, ok := e.Lookup(key); !ok || v != sized(5000) {
		t.Fatalf("Lookup = %v, %v; want the last value", v, ok)
	}
}

// TestNewerVersionReplacesOlder: the cache holds one entry a task (kind
// and hash). Storing a task's newer version drops the older one, which no
// lookup can reach again, and its charge; other tasks stay.
func TestNewerVersionReplacesOlder(t *testing.T) {
	e := New(Options{})
	put := func(k Key, n int64) {
		t.Helper()
		if _, err := e.Do(context.Background(), k, func(context.Context) (any, error) { return sized(n), nil }); err != nil {
			t.Fatal(err)
		}
	}
	old, other := KeyOf(1, "t", "x"), KeyOf(1, "t", "y")
	put(old, 1000)
	put(other, 2000)
	newer := KeyOf(2, "t", "x")
	put(newer, 500)
	if e.Cached(old) || !e.Cached(newer) || !e.Cached(other) || e.Len() != 2 {
		t.Fatalf("after a newer version: old %v, newer %v, other %v, %d entries; want false, true, true, 2",
			e.Cached(old), e.Cached(newer), e.Cached(other), e.Len())
	}
	if want := int64(2*entryBytes + 2000 + 500); e.Bytes() != want {
		t.Fatalf("cache holds %d bytes, want %d", e.Bytes(), want)
	}
	if _, _, ok := e.Lookup(old); ok {
		t.Fatal("Lookup found the replaced version")
	}
	if st := e.Stats(); st.Evictions != 0 {
		t.Fatalf("a replaced version counted %d evictions, want 0", st.Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	e := New(Options{})
	key := KeyOf(1, "t", "x")
	if _, err := e.Do(context.Background(), key, func(context.Context) (any, error) { return sized(4096), nil }); err != nil {
		t.Fatal(err)
	}
	if e.Bytes() != entryBytes+4096 {
		t.Fatalf("cache holds %d bytes, want %d", e.Bytes(), entryBytes+4096)
	}
	e.Invalidate()
	if e.Cached(key) || e.Len() != 0 || e.Bytes() != 0 {
		t.Fatalf("Invalidate left %d entries, %d bytes", e.Len(), e.Bytes())
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
