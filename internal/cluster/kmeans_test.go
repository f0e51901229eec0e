package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vap/internal/stat"
)

// blobs generates k gaussian blobs of m points each in dim dimensions.
func blobs(k, m, dim int, sep float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var rows [][]float64
	var labels []int
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for j := range center {
			center[j] = float64(c) * sep * float64(j%2*2-1)
		}
		center[0] = float64(c) * sep
		for i := 0; i < m; i++ {
			row := make([]float64, dim)
			for j := range row {
				row[j] = center[j] + rng.NormFloat64()*0.3
			}
			rows = append(rows, row)
			labels = append(labels, c)
		}
	}
	return rows, labels
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rows, truth := blobs(4, 30, 6, 5, 1)
	res, err := KMeans(rows, KMeansConfig{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := stat.AdjustedRandIndex(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("ARI on separated blobs = %v, want ~1", ari)
	}
	if len(res.Centroids) != 4 {
		t.Errorf("centroids = %d", len(res.Centroids))
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rows, _ := blobs(3, 25, 4, 4, 3)
	var curve []float64
	for k := 1; k <= 6; k++ {
		res, err := KMeans(rows, KMeansConfig{K: k, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		curve = append(curve, res.Inertia)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-9 {
			t.Errorf("inertia increased at k=%d: %v -> %v", i+1, curve[i-1], curve[i])
		}
	}
}

func TestKMeansK1(t *testing.T) {
	rows, _ := blobs(2, 10, 3, 3, 5)
	res, err := KMeans(rows, KMeansConfig{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("k=1 must label everything 0")
		}
	}
	// Centroid is the mean of all rows.
	for j := range res.Centroids[0] {
		mean := 0.0
		for _, r := range rows {
			mean += r[j]
		}
		mean /= float64(len(rows))
		if math.Abs(res.Centroids[0][j]-mean) > 1e-9 {
			t.Fatalf("k=1 centroid[%d] = %v, want %v", j, res.Centroids[0][j], mean)
		}
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	rows, _ := blobs(1, 8, 3, 1, 7)
	res, err := KMeans(rows, KMeansConfig{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every point its own cluster: inertia ~0.
	if res.Inertia > 1e-9 {
		t.Errorf("k=n inertia = %v, want 0", res.Inertia)
	}
}

func TestKMeansErrors(t *testing.T) {
	rows, _ := blobs(1, 5, 2, 1, 1)
	if _, err := KMeans(nil, KMeansConfig{K: 2}); err == nil {
		t.Error("empty should fail")
	}
	if _, err := KMeans(rows, KMeansConfig{K: 0}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KMeans(rows, KMeansConfig{K: 99}); err == nil {
		t.Error("k>n should fail")
	}
	if _, err := KMeans([][]float64{{1, 2}, {1}}, KMeansConfig{K: 1}); err == nil {
		t.Error("ragged should fail")
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	rows, _ := blobs(3, 20, 4, 4, 11)
	a, _ := KMeans(rows, KMeansConfig{K: 3, Seed: 9})
	b, _ := KMeans(rows, KMeansConfig{K: 3, Seed: 9})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("nondeterministic labels for fixed seed")
		}
	}
}

func TestKMeansNormalizeZSeparatesShapeNotScale(t *testing.T) {
	// Two shape groups, each spanning wildly different magnitudes. With
	// z-normalization k-means should group by shape.
	rng := rand.New(rand.NewSource(13))
	var rows [][]float64
	var truth []int
	for i := 0; i < 40; i++ {
		scale := math.Pow(10, float64(i%4)) // 1..1000
		row := make([]float64, 24)
		g := i % 2
		for j := range row {
			x := float64(j) / 24 * 2 * math.Pi
			if g == 0 {
				row[j] = scale * (2 + math.Sin(x) + rng.NormFloat64()*0.05)
			} else {
				row[j] = scale * (2 + math.Cos(x) + rng.NormFloat64()*0.05)
			}
		}
		rows = append(rows, row)
		truth = append(truth, g)
	}
	res, err := KMeans(rows, KMeansConfig{K: 2, Seed: 3, NormalizeZ: true})
	if err != nil {
		t.Fatal(err)
	}
	ari, _ := stat.AdjustedRandIndex(res.Labels, truth)
	if ari < 0.95 {
		t.Errorf("shape ARI with z-norm = %v, want ~1", ari)
	}
}

func TestKMeansLabelsInRangeProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(rng.Int31n(40))
		k := int(kRaw)%5 + 1
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		res, err := KMeans(rows, KMeansConfig{K: k, Seed: seed})
		if err != nil {
			return false
		}
		if len(res.Labels) != n {
			return false
		}
		for _, l := range res.Labels {
			if l < 0 || l >= k {
				return false
			}
		}
		return res.Inertia >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
