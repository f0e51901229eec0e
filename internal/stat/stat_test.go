package stat

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("stddev = %v, want 2", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("minmax = %v,%v", lo, hi)
	}
}

func TestEuclidean(t *testing.T) {
	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d != 5 {
		t.Errorf("euclidean = %v, want 5", d)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestQuantileUnsortedInputUnmodified(t *testing.T) {
	xs := []float64{5, 1, 3}
	_ = Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 {
		t.Error("Quantile modified its input")
	}
}

func TestMedianMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if m := Median(xs); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := MAD(xs); m != 1 {
		t.Errorf("MAD = %v, want 1", m)
	}
}

func TestNormalize01(t *testing.T) {
	out := Normalize01([]float64{10, 20, 30})
	if out[0] != 0 || out[2] != 1 || !almostEq(out[1], 0.5, 1e-12) {
		t.Errorf("normalize = %v", out)
	}
	flat := Normalize01([]float64{7, 7})
	if flat[0] != 0.5 || flat[1] != 0.5 {
		t.Errorf("constant normalize = %v", flat)
	}
}
