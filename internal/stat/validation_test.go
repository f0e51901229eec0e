package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// unitDist returns a distance function over 1-D positions.
func unitDist(pos []float64) func(i, j int) float64 {
	return func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }
}

func TestSilhouetteWellSeparated(t *testing.T) {
	// Two tight, far-apart groups: silhouette near 1.
	pos := []float64{0, 0.1, 0.2, 10, 10.1, 10.2}
	labels := []int{0, 0, 0, 1, 1, 1}
	s, err := Silhouette(6, labels, unitDist(pos))
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Errorf("well-separated silhouette = %v, want > 0.9", s)
	}
}

func TestSilhouetteBadLabels(t *testing.T) {
	// Labels split each tight group: silhouette should be poor.
	pos := []float64{0, 0.1, 10, 10.1}
	labels := []int{0, 1, 0, 1}
	s, err := Silhouette(4, labels, unitDist(pos))
	if err != nil {
		t.Fatal(err)
	}
	if s > 0 {
		t.Errorf("mismatched silhouette = %v, want <= 0", s)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	if _, err := Silhouette(0, nil, nil); err == nil {
		t.Error("empty should fail")
	}
	if _, err := Silhouette(3, []int{0, 0, 0}, unitDist([]float64{1, 2, 3})); err == nil {
		t.Error("single cluster should fail")
	}
}

func TestSilhouetteRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + int(rng.Int31n(20))
		pos := make([]float64, n)
		labels := make([]int, n)
		for i := range pos {
			pos[i] = rng.NormFloat64()
			labels[i] = int(rng.Int31n(3))
		}
		// Guarantee two clusters.
		labels[0], labels[1] = 0, 1
		s, err := Silhouette(n, labels, unitDist(pos))
		return err == nil && s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestARIIdentical(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	ari, err := AdjustedRandIndex(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ari, 1, 1e-12) {
		t.Errorf("ARI(identical) = %v", ari)
	}
}

func TestARIPermutedLabels(t *testing.T) {
	// ARI is invariant to label renaming.
	a := []int{0, 0, 1, 1, 2, 2}
	b := []int{5, 5, 9, 9, 7, 7}
	ari, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(ari, 1, 1e-12) {
		t.Errorf("ARI(renamed) = %v", ari)
	}
}

func TestARIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 2000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = int(rng.Int31n(4))
		b[i] = int(rng.Int31n(4))
	}
	ari, err := AdjustedRandIndex(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ari) > 0.05 {
		t.Errorf("ARI(random) = %v, want ~0", ari)
	}
}

func TestARIMismatch(t *testing.T) {
	if _, err := AdjustedRandIndex([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestNMIBounds(t *testing.T) {
	a := []int{0, 0, 1, 1}
	if v, _ := NMI(a, a); !almostEq(v, 1, 1e-12) {
		t.Errorf("NMI(identical) = %v", v)
	}
	b := []int{0, 1, 0, 1}
	v, err := NMI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v < 0 || v > 1 {
		t.Errorf("NMI out of range: %v", v)
	}
}

func TestPurity(t *testing.T) {
	pred := []int{0, 0, 0, 1, 1, 1}
	truth := []int{0, 0, 1, 1, 1, 1}
	p, err := Purity(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 0 majority truth 0 (2 of 3); cluster 1 majority 1 (3 of 3).
	if !almostEq(p, 5.0/6, 1e-12) {
		t.Errorf("purity = %v, want 5/6", p)
	}
}

func TestPurityPerfect(t *testing.T) {
	pred := []int{3, 3, 8, 8}
	truth := []int{0, 0, 1, 1}
	if p, _ := Purity(pred, truth); p != 1 {
		t.Errorf("purity = %v, want 1", p)
	}
}

func TestNeighborhoodPurity(t *testing.T) {
	// Two clusters on a line; each point's 2 nearest share its label.
	pos := []float64{0, 0.1, 0.2, 10, 10.1, 10.2}
	labels := []int{0, 0, 0, 1, 1, 1}
	p, err := NeighborhoodPurity(6, 2, labels, unitDist(pos))
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("knn purity = %v, want 1", p)
	}
	// Interleaved labels: each point's nearest neighbor has the other label.
	bad := []int{0, 1, 0, 1, 0, 1}
	p, err = NeighborhoodPurity(6, 1, bad, unitDist(pos))
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.2 {
		t.Errorf("interleaved knn purity = %v, want ~0", p)
	}
}

func TestNeighborhoodPurityErrors(t *testing.T) {
	if _, err := NeighborhoodPurity(3, 0, []int{0, 0, 1}, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := NeighborhoodPurity(3, 3, []int{0, 0, 1}, nil); err == nil {
		t.Error("k=n should fail")
	}
}
