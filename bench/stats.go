package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0 < p <= 1) of vals by the
// nearest-rank rule: the smallest value with at least p of the sample at
// or below it. It sorts a copy; an empty sample is NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the midpoint median (mean of the two middle values for an
// even count), the rule Python's statistics.median uses.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and the third quartile
// of vals over their median, the quartiles taken as Python's
// statistics.quantiles(vals, n=4) takes them (the builder's contract
// measures run-to-run spread this way). It needs four values.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / median(s)
}

// windowed is one metric computed once per measurement window: the
// reported value is the median of the windows, each at reference speed;
// the min/max window is its spread, N the samples behind all windows
// together, Raw the median of the windows as the clock gave them.
type windowed struct {
	Value float64
	Raw   float64
	Min   float64
	Max   float64
	N     int
	Per   []float64 // the windows that held samples, in order
}

// medianOfWindows folds per-window values (NaN windows — no samples —
// are skipped) into a windowed metric.
func medianOfWindows(perWindow []float64, n int) windowed {
	var ok []float64
	for _, v := range perWindow {
		if !math.IsNaN(v) {
			ok = append(ok, v)
		}
	}
	if len(ok) == 0 {
		return windowed{Value: math.NaN(), Raw: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	w := windowed{Value: median(ok), Min: ok[0], Max: ok[0], N: n, Per: ok}
	w.Raw = w.Value
	for _, v := range ok {
		w.Min = math.Min(w.Min, v)
		w.Max = math.Max(w.Max, v)
	}
	return w
}

// minP99Samples is the smallest window a p99 is reported from: below it
// fewer than ten samples lie beyond the percentile.
const minP99Samples = 1000

// window is one measurement window of a closed or open loop: a request
// started (or due) in [from, until) is recorded under window n. Window -1
// is the warm-up and records nothing.
type window struct {
	n           int
	from, until time.Time
}

// recorder collects per-class latencies, one slice per measurement
// window, and each window's speed index (calib.go). Each client goroutine
// owns its own recorder; merge folds them after the clients have stopped.
type recorder struct {
	lat   map[string][][]float64 // class -> window -> milliseconds
	index []float64              // window -> speed index; 1 where none was set
}

func newRecorder() *recorder { return &recorder{lat: map[string][][]float64{}} }

func (r *recorder) add(class string, window int, d time.Duration) {
	if window < 0 {
		return
	}
	w := r.lat[class]
	for len(w) <= window {
		w = append(w, nil)
	}
	w[window] = append(w[window], float64(d)/float64(time.Millisecond))
	r.lat[class] = w
}

func (r *recorder) setIndex(window int, idx float64) {
	if window < 0 {
		return
	}
	for len(r.index) <= window {
		r.index = append(r.index, 1)
	}
	r.index[window] = idx
}

// merge adds o's samples; the speed indices stay r's (clients of one run
// share their windows).
func (r *recorder) merge(o *recorder) {
	for class, ws := range o.lat {
		for i, vals := range ws {
			dst := r.lat[class]
			for len(dst) <= i {
				dst = append(dst, nil)
			}
			dst[i] = append(dst[i], vals...)
			r.lat[class] = dst
		}
	}
}

// atReference folds per-window values into a windowed metric at reference
// speed: a time is divided by its window's speed index, a rate multiplied.
func (r *recorder) atReference(perWindow []float64, n int, rate bool) windowed {
	adj := make([]float64, len(perWindow))
	for w, v := range perWindow {
		idx := 1.0
		if w < len(r.index) {
			idx = r.index[w]
		}
		if rate {
			adj[w] = v * idx
		} else {
			adj[w] = v / idx
		}
	}
	out := medianOfWindows(adj, n)
	out.Raw = medianOfWindows(perWindow, n).Value
	return out
}

// quantile reports the p-quantile of the pooled classes per window, then
// the median of the windows. minN > 0 drops windows holding fewer samples.
func (r *recorder) quantile(p float64, minN int, classes ...string) windowed {
	nWin := 0
	for _, c := range classes {
		if len(r.lat[c]) > nWin {
			nWin = len(r.lat[c])
		}
	}
	per := make([]float64, nWin)
	total := 0
	for w := 0; w < nWin; w++ {
		var pool []float64
		for _, c := range classes {
			if w < len(r.lat[c]) {
				pool = append(pool, r.lat[c][w]...)
			}
		}
		total += len(pool)
		if len(pool) == 0 || len(pool) < minN {
			per[w] = math.NaN()
			continue
		}
		per[w] = percentile(pool, p)
	}
	return r.atReference(per, total, false)
}

// perSecond is completions per second of the classes, per window of the
// given length.
func (r *recorder) perSecond(length time.Duration, nWin int, classes ...string) windowed {
	per := make([]float64, nWin)
	total := 0
	for w := range per {
		n := r.count(w, classes...)
		total += n
		per[w] = float64(n) / length.Seconds()
	}
	return r.atReference(per, total, true)
}

// count is the number of samples recorded for the classes in one window.
func (r *recorder) count(window int, classes ...string) int {
	n := 0
	for _, c := range classes {
		if window < len(r.lat[c]) {
			n += len(r.lat[c][window])
		}
	}
	return n
}

// openLoop is a fixed-rate schedule: tick k is due at start + k*period
// whatever happened to the ticks before it, so latency timed from due()
// counts the wait a stall imposes on later ticks.
type openLoop struct {
	start  time.Time
	period time.Duration
}

func (o openLoop) due(k int) time.Time { return o.start.Add(time.Duration(k) * o.period) }
