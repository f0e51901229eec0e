package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// TestQuartileSpread checks against statistics.quantiles(v, n=4) of
// Python: [1..10] gives 2.75 and 8.25, median 5.5.
func TestQuartileSpread(t *testing.T) {
	if got := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
	if got := quartileSpread([]float64{1, 2, 4, 8}); math.Abs(got-5.75/3) > 1e-12 { // 1.25 and 7
		t.Errorf("spread of 1,2,4,8 = %v", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	w := medianOfWindows([]float64{3, math.NaN(), 1, 2}, 42)
	if w.Value != 2 || w.Min != 1 || w.Max != 3 || w.N != 42 {
		t.Errorf("got %+v", w)
	}
	if w := medianOfWindows([]float64{math.NaN()}, 0); !math.IsNaN(w.Value) {
		t.Errorf("all-empty windows gave %+v", w)
	}
}

func TestRecorderQuantilePerWindow(t *testing.T) {
	r := newRecorder()
	r.add("a", -1, time.Hour) // warm-up: dropped
	for w, base := range []int{10, 30, 20} {
		for i := 1; i <= 9; i++ {
			r.add("a", w, time.Duration(base+i)*time.Millisecond)
		}
	}
	r.add("b", 0, 100*time.Millisecond)
	got := r.quantile(0.5, 0, "a")
	if got.Value != 25 || got.Min != 15 || got.Max != 35 || got.N != 27 {
		t.Errorf("p50 of a = %+v", got)
	}
	if pooled := r.quantile(1, 0, "a", "b"); pooled.Max != 100 {
		t.Errorf("pooled max = %+v", pooled)
	}
	if p99 := r.quantile(0.99, minP99Samples, "a"); !math.IsNaN(p99.Value) {
		t.Errorf("p99 from 9-sample windows = %+v, want NaN", p99)
	}
	o := newRecorder()
	o.add("a", 1, 31*time.Millisecond)
	r.merge(o)
	if r.count(1, "a") != 10 || r.count(0, "a", "b") != 10 {
		t.Errorf("counts after merge: %d %d", r.count(1, "a"), r.count(0, "a", "b"))
	}
}

// TestAtReferenceSpeed: a window's time is divided by its own speed
// index and a rate multiplied, before the median of the windows is taken.
func TestAtReferenceSpeed(t *testing.T) {
	r := newRecorder()
	for w, ms := range []int{10, 30, 20} {
		r.add("a", w, time.Duration(ms)*time.Millisecond)
	}
	r.setIndex(-1, 9) // warm-up: dropped
	r.setIndex(1, 2)  // window 1 ran at half speed; windows 0 and 2 keep index 1
	got := r.quantile(0.5, 0, "a")
	if got.Value != 15 || got.Raw != 20 || got.Min != 10 || got.Max != 20 {
		t.Errorf("p50 at reference speed = %+v", got)
	}
	rate := r.perSecond(time.Second, 3, "a")
	if rate.Value != 1 || rate.Max != 2 || rate.Raw != 1 {
		t.Errorf("rate at reference speed = %+v", rate)
	}
}

// TestClosedLoopWindow: requests started before the settle time has passed
// are issued but not recorded, and the warm-up records nothing.
func TestClosedLoopWindow(t *testing.T) {
	rec := newRecorder()
	var tally tallyErr
	issue := func() (string, error) { time.Sleep(2 * time.Millisecond); return "a", nil }
	now := time.Now()
	closedLoop(window{n: 0, from: now.Add(20 * time.Millisecond), until: now.Add(40 * time.Millisecond)}, rec, &tally, issue)
	if n := rec.count(0, "a"); n == 0 || n >= tally.attempted {
		t.Errorf("recorded %d of %d requests: want some, not all", n, tally.attempted)
	}
	now = time.Now()
	closedLoop(window{n: -1, from: now, until: now.Add(10 * time.Millisecond)}, rec, &tally, issue)
	if len(rec.lat["a"]) != 1 {
		t.Errorf("the warm-up recorded: %v", rec.lat)
	}
}

// TestOpenLoopTimesFromTheDueInstant: a stall on tick 3 must not move
// when tick 4 was due.
func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	start := time.Unix(1000, 0)
	o := openLoop{start: start, period: time.Second / tickHz}
	if got := o.due(4).Sub(start); got != 160*time.Millisecond {
		t.Errorf("tick 4 due at +%v", got)
	}
	stalledUntil := start.Add(500 * time.Millisecond) // tick 3 came back here
	if lat := stalledUntil.Add(5 * time.Millisecond).Sub(o.due(4)); lat != 345*time.Millisecond {
		t.Errorf("tick 4 latency from its due instant = %v, want 345ms", lat)
	}
}
