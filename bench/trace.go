package main

import (
	"runtime"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the tracer started, the span that caused it (-1 for
// a root) and the statement or request it belongs to. Counts are taken at
// the same boundary as the times (samples decoded, rows, bytes out, ...).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Stmt   int                `json:"stmt"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. With on == false
// run() still times the call but records nothing: the same code measured
// both ways is what trace.overhead_share compares.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// run times fn as a span under parent and returns its duration. fn gets
// the span's id (-1 when recording is off), to parent its own spans on,
// and may return counts for the span.
func (t *tracer) run(name string, parent, stmt int, fn func(id int) map[string]float64) time.Duration {
	if !t.on {
		start := time.Now()
		fn(-1)
		return time.Since(start)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name})
	start := time.Now()
	counts := fn(id)
	end := time.Now()
	s := &t.spans[id]
	s.Start, s.End, s.Counts = int64(start.Sub(t.t0)), int64(end.Sub(t.t0)), counts
	return end.Sub(start)
}

// series collects durations (or any numbers) by name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) med(name string) float64    { return median(s[name]) }
func (s series) mean(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s[name] {
		sum += v
	}
	return sum / float64(len(s[name]))
}

// allocsPer is the mean number of heap allocations of one fn call.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
