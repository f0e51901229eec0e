package reduce

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vap/internal/stat"
)

// threeClusters builds n rows in 3 well-separated groups of distinct
// shapes (for Pearson) and magnitudes (for Euclidean), returning rows and
// ground-truth labels.
func threeClusters(n, dim int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	labels := make([]int, n)
	for i := range rows {
		g := i % 3
		labels[i] = g
		row := make([]float64, dim)
		for j := range row {
			x := float64(j) / float64(dim) * 2 * math.Pi
			switch g {
			case 0:
				row[j] = math.Sin(x)*2 + 5
			case 1:
				row[j] = math.Cos(2*x)*3 + 1
			default:
				row[j] = float64(j)/float64(dim)*4 - 2 // linear ramp
			}
			row[j] += rng.NormFloat64() * 0.15
		}
		rows[i] = row
	}
	return rows, labels
}

func TestDistanceMatrixProperties(t *testing.T) {
	rows, _ := threeClusters(12, 24, 1)
	for _, m := range []Metric{MetricPearson, MetricEuclidean} {
		d, err := DistanceMatrix(rows, m)
		if err != nil {
			t.Fatal(err)
		}
		n := len(rows)
		for i := 0; i < n; i++ {
			if d[i][i] != 0 {
				t.Fatalf("%s: d[%d][%d] = %v, want 0", m, i, i, d[i][i])
			}
			for j := 0; j < n; j++ {
				if d[i][j] != d[j][i] {
					t.Fatalf("%s: asymmetric at %d,%d", m, i, j)
				}
				if d[i][j] < 0 {
					t.Fatalf("%s: negative distance", m)
				}
			}
		}
	}
}

func TestDistanceMatrixErrors(t *testing.T) {
	if _, err := DistanceMatrix(nil, MetricPearson); err == nil {
		t.Error("empty should fail")
	}
	if _, err := DistanceMatrix([][]float64{{1, 2}, {1}}, MetricPearson); err == nil {
		t.Error("ragged should fail")
	}
	if _, err := DistanceMatrix([][]float64{{1, 2}}, "cosine"); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestTSNESeparatesClusters(t *testing.T) {
	rows, labels := threeClusters(60, 32, 2)
	d, err := DistanceMatrix(rows, MetricPearson)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TSNE(context.Background(), d, TSNEConfig{Seed: 3, Iterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Embedding) != 60 {
		t.Fatalf("embedding size = %d", len(res.Embedding))
	}
	knn, err := stat.NeighborhoodPurity(60, 5, labels, func(i, j int) float64 {
		return res.Embedding.Dist(i, j)
	})
	if err != nil {
		t.Fatal(err)
	}
	if knn < 0.9 {
		t.Errorf("t-SNE knn purity = %.3f, want >= 0.9", knn)
	}
	if res.KL < 0 {
		t.Errorf("KL divergence = %v, must be >= 0", res.KL)
	}
	if len(res.KLTrace) == 0 {
		t.Error("no KL trace recorded")
	}
}

func TestTSNEKLDecreases(t *testing.T) {
	rows, _ := threeClusters(45, 24, 5)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	res, err := TSNE(context.Background(), d, TSNEConfig{Seed: 1, Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	first := res.KLTrace[0]
	last := res.KLTrace[len(res.KLTrace)-1]
	if last >= first {
		t.Errorf("KL did not decrease: %v -> %v", first, last)
	}
}

func TestTSNECancellation(t *testing.T) {
	rows, _ := threeClusters(40, 16, 1)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TSNE(ctx, d, TSNEConfig{}); err == nil {
		t.Error("cancelled context should abort t-SNE")
	}
}

func TestTSNEErrors(t *testing.T) {
	if _, err := TSNE(context.Background(), [][]float64{{0}}, TSNEConfig{}); err == nil {
		t.Error("n<2 should fail")
	}
	bad := [][]float64{{0, 1}, {1}}
	if _, err := TSNE(context.Background(), bad, TSNEConfig{}); err == nil {
		t.Error("ragged matrix should fail")
	}
}

func TestTSNEDeterministicForSeed(t *testing.T) {
	rows, _ := threeClusters(30, 16, 9)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	a, err := TSNE(context.Background(), d, TSNEConfig{Seed: 5, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TSNE(context.Background(), d, TSNEConfig{Seed: 5, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Embedding {
		if a.Embedding[i] != b.Embedding[i] {
			t.Fatalf("nondeterministic embedding at %d", i)
		}
	}
}

func TestClassicalMDSRecoversLineGeometry(t *testing.T) {
	// Distances of points on a line: 0, 3, 7 -> classical MDS must embed
	// with pairwise distances preserved exactly (the input is Euclidean).
	d := [][]float64{
		{0, 3, 7},
		{3, 0, 4},
		{7, 4, 0},
	}
	emb, err := ClassicalMDS(d)
	if err != nil {
		t.Fatal(err)
	}
	check := func(i, j int, want float64) {
		got := emb.Dist(i, j)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("embedded d(%d,%d) = %v, want %v", i, j, got, want)
		}
	}
	check(0, 1, 3)
	check(1, 2, 4)
	check(0, 2, 7)
}

func TestClassicalMDSLargeUsesPowerIteration(t *testing.T) {
	rows, labels := threeClusters(90, 24, 4) // > jacobiCutoff
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	emb, err := ClassicalMDS(d)
	if err != nil {
		t.Fatal(err)
	}
	knn, err := stat.NeighborhoodPurity(90, 5, labels, func(i, j int) float64 {
		return emb.Dist(i, j)
	})
	if err != nil {
		t.Fatal(err)
	}
	if knn < 0.85 {
		t.Errorf("large MDS knn purity = %.3f", knn)
	}
}

func TestSMACOFReducesStress(t *testing.T) {
	rows, _ := threeClusters(40, 24, 6)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	res, err := SMACOF(context.Background(), d, SMACOFConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Stress of a random layout for comparison.
	rng := rand.New(rand.NewSource(2))
	randEmb := make(Embedding, 40)
	for i := range randEmb {
		randEmb[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	if res.Stress >= stress(d, randEmb) {
		t.Errorf("SMACOF stress %v not below random layout %v", res.Stress, stress(d, randEmb))
	}
}

func TestSMACOFCancellation(t *testing.T) {
	rows, _ := threeClusters(20, 8, 1)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SMACOF(ctx, d, SMACOFConfig{}); err == nil {
		t.Error("cancelled context should abort SMACOF")
	}
}

func TestPCAKnownDirection(t *testing.T) {
	// Points mostly varying along (1,1): PC1 must align with it.
	rng := rand.New(rand.NewSource(8))
	rows := make([][]float64, 80)
	for i := range rows {
		t1 := rng.NormFloat64() * 5
		t2 := rng.NormFloat64() * 0.2
		rows[i] = []float64{t1 + t2, t1 - t2}
	}
	emb, err := PCA(rows)
	if err != nil {
		t.Fatal(err)
	}
	// The first embedding coordinate must carry most variance.
	var v1, v2 []float64
	for _, p := range emb {
		v1 = append(v1, p[0])
		v2 = append(v2, p[1])
	}
	if stat.Variance(v1) < 10*stat.Variance(v2) {
		t.Errorf("PC1 var %v not dominant over PC2 var %v", stat.Variance(v1), stat.Variance(v2))
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := PCA([][]float64{{1, 2}}); err == nil {
		t.Error("n<2 should fail")
	}
	if _, err := PCA([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged should fail")
	}
}

func TestReduceDispatch(t *testing.T) {
	rows, _ := threeClusters(24, 12, 3)
	ctx := context.Background()
	for _, m := range []Method{MethodTSNE, MethodMDS, MethodSMACOF, MethodPCA} {
		emb, err := Reduce(ctx, rows, m, MetricPearson, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(emb) != 24 {
			t.Fatalf("%s: embedding size %d", m, len(emb))
		}
	}
	if _, err := Reduce(ctx, rows, "umap", MetricPearson, 1, 2); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestEmbeddingNormalize01(t *testing.T) {
	e := Embedding{{-3, 10}, {7, 20}, {2, 15}}
	e.Normalize01()
	minX, minY, maxX, maxY := e.Bounds()
	if minX != 0 || maxX != 1 || minY != 0 || maxY != 1 {
		t.Errorf("bounds after normalize = %v %v %v %v", minX, minY, maxX, maxY)
	}
	// Degenerate axis maps to 0.5.
	flat := Embedding{{1, 5}, {2, 5}}
	flat.Normalize01()
	if flat[0][1] != 0.5 || flat[1][1] != 0.5 {
		t.Errorf("degenerate axis = %v", flat)
	}
}

func TestEmbeddingNormalizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(rng.Int31n(30))
		e := make(Embedding, n)
		for i := range e {
			e[i] = [2]float64{rng.NormFloat64() * 100, rng.NormFloat64() * 100}
		}
		e.Normalize01()
		for _, p := range e {
			if p[0] < -1e-12 || p[0] > 1+1e-12 || p[1] < -1e-12 || p[1] > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPerplexitySearchHitsTarget(t *testing.T) {
	rows, _ := threeClusters(50, 16, 7)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	perp := 12.0
	n := len(d)
	cond, err := perplexitySearch(context.Background(), d, perp, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := cond[i*n : (i+1)*n]
		// Row must be a probability distribution.
		sum := 0.0
		h := 0.0
		for j, p := range row {
			if j == i {
				continue
			}
			sum += p
			if p > 1e-300 {
				h -= p * math.Log(p)
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
		if math.Abs(math.Exp(h)-perp) > 0.5 {
			t.Fatalf("row %d perplexity = %v, want ~%v", i, math.Exp(h), perp)
		}
	}
}

func TestDistanceMatrixParallelMatchesSerial(t *testing.T) {
	rows, _ := threeClusters(33, 48, 7)
	for _, m := range []Metric{MetricPearson, MetricEuclidean} {
		serial, err := DistanceMatrix(rows, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 0} {
			par, err := DistanceMatrixCtx(context.Background(), rows, m, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m, workers, err)
			}
			for i := range serial {
				for j := range serial[i] {
					if par[i][j] != serial[i][j] {
						t.Fatalf("%s workers=%d: d[%d][%d] = %v, serial %v",
							m, workers, i, j, par[i][j], serial[i][j])
					}
				}
			}
		}
	}
}

func TestDistanceMatrixCtxCancelled(t *testing.T) {
	rows, _ := threeClusters(60, 48, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DistanceMatrixCtx(ctx, rows, MetricPearson, 4); err == nil {
		t.Fatal("cancelled context did not abort the distance matrix")
	}
}
