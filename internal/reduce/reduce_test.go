package reduce

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vap/internal/gen"
	"vap/internal/mat"
	"vap/internal/query"
	"vap/internal/stat"
	"vap/internal/store"
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
		d, err := DistanceMatrixCtx(context.Background(), rows, m, 1)
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
	if _, err := DistanceMatrixCtx(context.Background(), nil, MetricPearson, 1); err == nil {
		t.Error("empty should fail")
	}
	if _, err := DistanceMatrixCtx(context.Background(), [][]float64{{1, 2}, {1}}, MetricPearson, 1); err == nil {
		t.Error("ragged should fail")
	}
	if _, err := DistanceMatrixCtx(context.Background(), [][]float64{{1, 2}}, "cosine", 1); err == nil {
		t.Error("unknown metric should fail")
	}
}

func TestTSNESeparatesClusters(t *testing.T) {
	rows, labels := threeClusters(60, 32, 2)
	d, err := DistanceMatrixCtx(context.Background(), rows, MetricPearson, 1)
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
}

// TestTSNEKLDecreases: the same seed run for 500 iterations ends at a
// lower KL than after its first 50.
func TestTSNEKLDecreases(t *testing.T) {
	rows, _ := threeClusters(45, 24, 5)
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
	first, err := TSNE(context.Background(), d, TSNEConfig{Seed: 1, Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	last, err := TSNE(context.Background(), d, TSNEConfig{Seed: 1, Iterations: 500})
	if err != nil {
		t.Fatal(err)
	}
	if last.KL >= first.KL {
		t.Errorf("KL did not decrease: %v after 50 iterations, %v after 500", first.KL, last.KL)
	}
}

func TestTSNECancellation(t *testing.T) {
	rows, _ := threeClusters(40, 16, 1)
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
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
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
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

// TestClassicalMDSLargeUsesPowerIteration keeps the name of the branch n =
// 90 once took; every n now goes through the same eigen solve.
func TestClassicalMDSLargeUsesPowerIteration(t *testing.T) {
	rows, labels := threeClusters(90, 24, 4)
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
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

// TestClassicalMDSByValueOnIndefiniteGram pins classical MDS to the Gram
// matrix's two largest eigenvalues by value. The generated year's monthly
// profiles of meters 81-145 (n = 65) give a Pearson Gram matrix whose
// second eigenvalue by magnitude is negative: a largest-magnitude solver
// clamped that axis to 0 and gave every point the same y.
func TestClassicalMDSByValueOnIndefiniteGram(t *testing.T) {
	ds := gen.Generate(gen.Config{Seed: 42, Days: 365})
	st, err := store.Open(store.Options{RollupRes: []int64{}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var ids []int64
	for i := 80; i < 145; i++ {
		m := ds.Customers[i].Meter
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendBatch(m.ID, ds.Readings[i]); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, m.ID)
	}
	_, _, rows, err := query.NewEngineWorkers(st, 1).MeterMatrixCtx(context.Background(), query.Selection{MeterIDs: ids}, query.GranMonthly, query.AggMean)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DistanceMatrixCtx(context.Background(), rows, MetricPearson, 1)
	if err != nil {
		t.Fatal(err)
	}
	emb, err := ClassicalMDS(d)
	if err != nil {
		t.Fatal(err)
	}
	ys := map[float64]bool{}
	for _, p := range emb {
		ys[p[1]] = true
	}
	if len(ys) != len(emb) {
		t.Errorf("%d distinct y values over %d points", len(ys), len(emb))
	}
	// The reference: the full Jacobi decomposition of the same Gram matrix.
	n := len(d)
	d2 := mat.NewDense(n, n)
	for i := range d {
		for j := range d {
			d2.Set(i, j, d[i][j]*d[i][j])
		}
	}
	b, _ := mat.DoubleCenter(d2)
	full, err := mat.SymEigen(b)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if full.Values[k] <= 0 {
			t.Fatalf("reference eigenvalue %d = %v, want positive", k, full.Values[k])
		}
		s, sign := math.Sqrt(full.Values[k]), 0.0
		for i := range emb {
			sign += emb[i][k] * full.Vectors.At(i, k)
		}
		sign = math.Copysign(1, sign)
		for i := range emb {
			if want := sign * s * full.Vectors.At(i, k); math.Abs(emb[i][k]-want) > 1e-8 {
				t.Fatalf("axis %d point %d = %v, Jacobi %v", k, i, emb[i][k], want)
			}
		}
	}
}

// TestClassicalMDSEquidistantKeepsBothAxes: points all at distance 1 from
// each other (a selection of flat series, which correlate with nothing)
// give B = J/2, one eigenvalue 1/2 repeated n-1 times. Both axes must
// carry it; the Krylov space of one start vector goes invariant after two
// steps, before it has seen the second copy.
func TestClassicalMDSEquidistantKeepsBothAxes(t *testing.T) {
	for _, n := range []int{3, 10, 65, 120} {
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = 1
				}
			}
		}
		emb, err := ClassicalMDS(d)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			ss := 0.0
			for _, p := range emb {
				ss += p[k] * p[k]
			}
			// sum of squared coordinates along an axis is its eigenvalue
			if math.Abs(ss-0.5) > 1e-9 {
				t.Errorf("n=%d: axis %d carries %v, want 0.5", n, k, ss)
			}
		}
	}
}

func TestSMACOFReducesStress(t *testing.T) {
	rows, _ := threeClusters(40, 24, 6)
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
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
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
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
	emb, err := PCA(context.Background(), rows)
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

// TestPCAOneFeatureColumn covers rows of one feature, such as a yearly
// profile over a window inside one calendar year: the covariance is 1 x 1,
// the first axis is the centred value and the second is 0.
func TestPCAOneFeatureColumn(t *testing.T) {
	emb, err := PCA(context.Background(), [][]float64{{1}, {3}, {8}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{-3, -1, 4} {
		if math.Abs(math.Abs(emb[i][0])-math.Abs(want)) > 1e-12 || emb[i][1] != 0 {
			t.Errorf("point %d = %v, want (±%v, 0)", i, emb[i], want)
		}
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := PCA(context.Background(), [][]float64{{1, 2}}); err == nil {
		t.Error("n<2 should fail")
	}
	if _, err := PCA(context.Background(), [][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged should fail")
	}
}

// TestPCACancellation: the O(n·dim²) covariance pass checks its context, so
// a handler timeout stops a PCA that admission let through.
func TestPCACancellation(t *testing.T) {
	rows, _ := threeClusters(20, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Reduce(ctx, rows, MethodPCA, MetricPearson, 1, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
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
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
	perp := 12.0
	n := len(d)
	cond, _, err := perplexitySearch(context.Background(), d, perp, 2)
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
		serial, err := DistanceMatrixCtx(context.Background(), rows, m, 1)
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
