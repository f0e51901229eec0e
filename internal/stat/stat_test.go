package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", r)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("constant input correlation = %v, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestPearsonScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(rng.Int31n(20))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r1, err1 := Pearson(x, y)
		// Affine transform of x must not change r (positive scale).
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = 3*x[i] + 7
		}
		r2, err2 := Pearson(x2, y)
		return err1 == nil && err2 == nil && almostEq(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPearsonDistanceRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(rng.Int31n(10))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		d, err := PearsonDistance(x, y)
		return err == nil && d >= 0 && d <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
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

func TestZScoresRobustFlagsOutlier(t *testing.T) {
	xs := []float64{10, 11, 12, 9, 10, 11, 9, 100}
	z := ZScoresRobust(xs)
	if math.Abs(z[7]) < 5 {
		t.Errorf("outlier z = %v, want |z| >= 5", z[7])
	}
	if math.Abs(z[0]) > 1 {
		t.Errorf("inlier z = %v", z[0])
	}
}

func TestZScoresRobustConstant(t *testing.T) {
	z := ZScoresRobust([]float64{5, 5, 5})
	for _, v := range z {
		if v != 0 {
			t.Errorf("constant input z = %v, want 0", v)
		}
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
