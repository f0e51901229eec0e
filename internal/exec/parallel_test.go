package exec

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid is the calling goroutine's id, parsed from its stack header.
func goid() int64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, err := strconv.ParseInt(s[:strings.IndexByte(s, ' ')], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// settle waits until runtime.NumGoroutine is back to base: a goroutine
// that has signalled its exit may take a moment to leave the count.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after Close, %d before the team", got, base)
	}
}

// TestTeamReusesItsGoroutines: 500 passes on one team finish every item
// once before Run returns and run on at most workers goroutines, the
// caller's included, also when the helpers have parked between passes;
// Close leaves none of them behind.
func TestTeamReusesItsGoroutines(t *testing.T) {
	for _, workers := range []int{2, 4} {
		base := runtime.NumGoroutine()
		team := NewTeam(workers)
		var mu sync.Mutex
		ids := map[int64]bool{}
		const n = 64
		for pass := 0; pass < 500; pass++ {
			if pass%100 == 99 {
				time.Sleep(2 * idlePoll) // let the helpers park
			}
			seen := make([]atomic.Int32, n)
			err := team.Run(context.Background(), n, func(i int) error {
				id := goid()
				mu.Lock()
				ids[id] = true
				mu.Unlock()
				// Counted at the end of some work, so an item still
				// running when Run returns shows as unfinished.
				for deadline := time.Now().Add(5 * time.Microsecond); time.Now().Before(deadline); {
				}
				seen[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d pass %d: %v", workers, pass, err)
			}
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d pass %d: item %d finished %d times", workers, pass, i, got)
				}
			}
		}
		team.Close()
		if len(ids) > workers {
			t.Errorf("workers=%d: 500 passes ran on %d goroutines", workers, len(ids))
		}
		settle(t, base)
	}
}

// TestTeamPanicIsPanicError: a panic on the caller's goroutine or on a
// helper ends the pass as a *PanicError, and the team still closes. The
// side that panics signals first, and the other side waits for it, so
// each case is sure to reach its goroutine.
func TestTeamPanicIsPanicError(t *testing.T) {
	for _, onCaller := range []bool{true, false} {
		base := runtime.NumGoroutine()
		team := NewTeam(2)
		caller := goid()
		panicked := make(chan struct{})
		var once sync.Once
		err := team.Run(context.Background(), 1<<20, func(i int) error {
			if (goid() == caller) == onCaller {
				once.Do(func() { close(panicked) })
				explode()
			}
			select {
			case <-panicked:
			case <-time.After(10 * time.Second):
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "kaboom" {
			t.Fatalf("onCaller=%v: err = %v (%T), want *PanicError kaboom", onCaller, err, err)
		}
		if !contains(string(pe.Stack), "exec.explode") {
			t.Errorf("onCaller=%v: stack does not name the panicking function:\n%s", onCaller, pe.Stack)
		}
		// The team survives the panic: a further pass runs clean.
		if err := team.Run(context.Background(), 100, func(int) error { return nil }); err != nil {
			t.Errorf("onCaller=%v: pass after the panic: %v", onCaller, err)
		}
		team.Close()
		settle(t, base)
	}
}

// TestTeamCancelMidPass: a context cancelled partway through a pass stops
// it with ctx's error, and the team runs the next pass in full.
func TestTeamCancelMidPass(t *testing.T) {
	base := runtime.NumGoroutine()
	team := NewTeam(4)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := team.Run(ctx, 1<<20, func(i int) error {
		if ran.Add(1) == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() >= 1<<20 {
		t.Fatal("cancellation did not stop the pass")
	}
	ran.Store(0)
	if err := team.Run(context.Background(), 1000, func(int) error { ran.Add(1); return nil }); err != nil || ran.Load() != 1000 {
		t.Errorf("pass after the cancelled one: %d items, err %v", ran.Load(), err)
	}
	team.Close()
	settle(t, base)
}

// TestTeamOfOneRunsInline: a team without helpers runs each pass on the
// caller alone, and an error ends it.
func TestTeamOfOneRunsInline(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	caller := goid()
	boom := errors.New("boom")
	var ran int
	err := team.Run(context.Background(), 100, func(i int) error {
		if goid() != caller {
			t.Errorf("item %d ran off the calling goroutine", i)
		}
		ran++
		if i == 9 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 10 {
		t.Errorf("err = %v after %d items, want boom after 10", err, ran)
	}
	if err := team.Run(context.Background(), 0, nil); err != nil {
		t.Errorf("empty pass: %v", err)
	}
}
