// Package stat provides the statistics VAP relies on: descriptive moments,
// Pearson correlation (the paper's distance metric for typical
// pattern discovery), quantiles (S2's intensity selection), and external
// cluster-validation indices (silhouette, adjusted Rand index, NMI) used to
// quantify the demo scenarios.
package stat

import (
	"errors"
	"math"
	"sort"
)

// ErrLength is returned when paired slices have mismatched or zero length.
var ErrLength = errors.New("stat: slices must have equal nonzero length")

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs; (0,0) for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Pearson returns the Pearson correlation coefficient between x and y.
// A zero-variance input yields 0 (no linear association measurable), which
// keeps the derived distance well defined for constant consumption profiles
// such as the paper's "idle" and "constant high" patterns.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) == 0 {
		return 0, ErrLength
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// PearsonDistance returns 1 - r, the paper's trend-aware dissimilarity in
// [0, 2]. Errors propagate from Pearson.
func PearsonDistance(x, y []float64) (float64, error) {
	r, err := Pearson(x, y)
	if err != nil {
		return 0, err
	}
	return 1 - r, nil
}

// Euclidean returns the L2 distance between x and y.
func Euclidean(x, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) == 0 {
		return 0, ErrLength
	}
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// Quantile returns the q-th quantile (q in [0,1]) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		m, _ := MinMax(xs)
		return m
	}
	if q >= 1 {
		_, m := MinMax(xs)
		return m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MAD returns the median absolute deviation (unscaled).
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// ZScoresRobust returns robust z-scores (x - median) / (1.4826 * MAD).
// If MAD is zero, the scores fall back to classic z-scores; if the standard
// deviation is also zero, all scores are zero.
func ZScoresRobust(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	m := Median(xs)
	mad := MAD(xs) * 1.4826
	if mad > 0 {
		for i, x := range xs {
			out[i] = (x - m) / mad
		}
		return out
	}
	mu := Mean(xs)
	sd := StdDev(xs)
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - mu) / sd
	}
	return out
}

// Normalize01 linearly rescales xs into [0,1] (all 0.5 if constant), used by
// the paper's consumption re-weighting c_i in Eq. 3.
func Normalize01(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := MinMax(xs)
	if hi == lo {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}
