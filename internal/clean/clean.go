// Package clean implements the preprocessing stage of the VAP framework
// (Figure 1): "removal of anomalies and correction of missing values".
// It provides robust anomaly detectors (global robust z-score, Hampel
// sliding window), gap detection, and several imputation strategies
// (linear interpolation, seasonal-naive fill, forward fill).
package clean

import (
	"errors"
	"fmt"
	"math"

	"vap/internal/stat"
	"vap/internal/store"
)

// ErrEmpty is returned for operations on empty inputs.
var ErrEmpty = errors.New("clean: empty input")

// AnomalyMethod selects a detection algorithm.
type AnomalyMethod string

// Available anomaly detectors.
const (
	// MethodRobustZ flags samples whose robust z-score (median/MAD based)
	// exceeds the threshold — a global detector good for one-off spikes.
	MethodRobustZ AnomalyMethod = "robust_z"
	// MethodHampel applies a sliding-window median filter and flags samples
	// deviating from the local median by more than threshold * local MAD.
	MethodHampel AnomalyMethod = "hampel"
	// MethodNegative flags physically impossible negative consumption.
	MethodNegative AnomalyMethod = "negative"
)

// AnomalyConfig tunes detection.
type AnomalyConfig struct {
	Method    AnomalyMethod
	Threshold float64 // z-score threshold; default 4
	Window    int     // Hampel half-window in samples; default 12
}

func (c *AnomalyConfig) defaults() {
	if c.Threshold <= 0 {
		c.Threshold = 4
	}
	if c.Window <= 0 {
		c.Window = 12
	}
	if c.Method == "" {
		c.Method = MethodHampel
	}
}

// DetectAnomalies returns the indexes of samples flagged as anomalous,
// sorted ascending.
func DetectAnomalies(samples []store.Sample, cfg AnomalyConfig) ([]int, error) {
	cfg.defaults()
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	values := make([]float64, len(samples))
	for i, s := range samples {
		values[i] = s.Value
	}
	switch cfg.Method {
	case MethodRobustZ:
		z := stat.ZScoresRobust(values)
		var out []int
		for i, s := range z {
			if math.Abs(s) > cfg.Threshold || values[i] < 0 || math.IsNaN(values[i]) {
				out = append(out, i)
			}
		}
		return out, nil
	case MethodHampel:
		return hampel(values, cfg.Window, cfg.Threshold), nil
	case MethodNegative:
		var out []int
		for i, v := range values {
			if v < 0 || math.IsNaN(v) {
				out = append(out, i)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("clean: unknown anomaly method %q", cfg.Method)
	}
}

// hampel flags index i when |x_i - median(window)| > t * 1.4826 * MAD(window).
func hampel(x []float64, half int, t float64) []int {
	n := len(x)
	var out []int
	win := make([]float64, 0, 2*half+1)
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= n {
			hi = n - 1
		}
		win = win[:0]
		for j := lo; j <= hi; j++ {
			win = append(win, x[j])
		}
		med := stat.Median(win)
		mad := stat.MAD(win) * 1.4826
		if math.IsNaN(x[i]) || x[i] < 0 {
			out = append(out, i)
			continue
		}
		if mad == 0 {
			continue
		}
		if math.Abs(x[i]-med) > t*mad {
			out = append(out, i)
		}
	}
	return out
}

// Gap is a missing stretch in a regular series.
type Gap struct {
	AfterTS  int64 // last present timestamp before the gap
	BeforeTS int64 // first present timestamp after the gap
	Missing  int   // number of absent samples
}

// FindGaps locates missing samples assuming a regular cadence of stepSec.
func FindGaps(samples []store.Sample, stepSec int64) ([]Gap, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	if stepSec <= 0 {
		return nil, fmt.Errorf("clean: step must be positive, got %d", stepSec)
	}
	var out []Gap
	for i := 1; i < len(samples); i++ {
		d := samples[i].TS - samples[i-1].TS
		if d > stepSec {
			out = append(out, Gap{
				AfterTS:  samples[i-1].TS,
				BeforeTS: samples[i].TS,
				Missing:  int(d/stepSec) - 1,
			})
		}
	}
	return out, nil
}

// FillMethod selects an imputation strategy.
type FillMethod string

// Available imputation strategies.
const (
	// FillLinear interpolates linearly between gap endpoints.
	FillLinear FillMethod = "linear"
	// FillForward repeats the last observed value.
	FillForward FillMethod = "forward"
	// FillSeasonal copies the value one season (period) earlier when
	// available, falling back to linear interpolation.
	FillSeasonal FillMethod = "seasonal"
)

// FillGaps returns a regular series at stepSec cadence with all gaps filled
// using the chosen method. period is the season length in samples for
// FillSeasonal (e.g., 24 for daily seasonality at hourly cadence).
func FillGaps(samples []store.Sample, stepSec int64, method FillMethod, period int) ([]store.Sample, error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	if stepSec <= 0 {
		return nil, fmt.Errorf("clean: step must be positive, got %d", stepSec)
	}
	if method == FillSeasonal && period <= 0 {
		return nil, fmt.Errorf("clean: seasonal fill needs a positive period")
	}
	first := samples[0].TS
	last := samples[len(samples)-1].TS
	n := int((last-first)/stepSec) + 1
	out := make([]store.Sample, 0, n)
	present := make(map[int64]float64, len(samples))
	for _, s := range samples {
		present[s.TS] = s.Value
	}
	// Collect the observed grid values; off-grid samples snap to the
	// nearest grid slot (first writer wins).
	for ts := first; ts <= last; ts += stepSec {
		if v, ok := present[ts]; ok {
			out = append(out, store.Sample{TS: ts, Value: v})
		} else {
			out = append(out, store.Sample{TS: ts, Value: math.NaN()})
		}
	}
	switch method {
	case FillForward:
		for i := range out {
			if math.IsNaN(out[i].Value) {
				if i == 0 {
					out[i].Value = firstValid(out)
				} else {
					out[i].Value = out[i-1].Value
				}
			}
		}
	case FillLinear:
		fillLinear(out)
	case FillSeasonal:
		for i := range out {
			if math.IsNaN(out[i].Value) && i-period >= 0 && !math.IsNaN(out[i-period].Value) {
				out[i].Value = out[i-period].Value
			}
		}
		fillLinear(out) // whatever remains
	default:
		return nil, fmt.Errorf("clean: unknown fill method %q", method)
	}
	return out, nil
}

func firstValid(s []store.Sample) float64 {
	for _, x := range s {
		if !math.IsNaN(x.Value) {
			return x.Value
		}
	}
	return 0
}

// fillLinear interpolates NaN runs in place; leading/trailing runs are
// extended flat from the nearest valid value.
func fillLinear(s []store.Sample) {
	n := len(s)
	i := 0
	for i < n {
		if !math.IsNaN(s[i].Value) {
			i++
			continue
		}
		// Find the run [i, j).
		j := i
		for j < n && math.IsNaN(s[j].Value) {
			j++
		}
		var left, right float64
		hasLeft := i > 0
		hasRight := j < n
		if hasLeft {
			left = s[i-1].Value
		}
		if hasRight {
			right = s[j].Value
		}
		switch {
		case hasLeft && hasRight:
			span := float64(j - i + 1)
			for k := i; k < j; k++ {
				frac := float64(k-i+1) / span
				s[k].Value = left + (right-left)*frac
			}
		case hasLeft:
			for k := i; k < j; k++ {
				s[k].Value = left
			}
		case hasRight:
			for k := i; k < j; k++ {
				s[k].Value = right
			}
		default:
			for k := i; k < j; k++ {
				s[k].Value = 0
			}
		}
		i = j
	}
}
