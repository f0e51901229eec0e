package reduce

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"vap/internal/gen"
	"vap/internal/stat"
)

// flatten copies a square matrix into the flat row-major layout the
// production kernels use.
func flatten(m [][]float64) []float64 {
	n := len(m)
	out := make([]float64, 0, n*n)
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

func randomEmbedding(rng *rand.Rand, n int, scale float64) Embedding {
	y := make(Embedding, n)
	for i := range y {
		y[i] = [2]float64{rng.NormFloat64() * scale, rng.NormFloat64() * scale}
	}
	return y
}

// genDailyFixture is the benchmark's reduce input: the 460 generated
// meters as rows of 365 daily mean readings, under the Pearson distance.
func genDailyFixture(t *testing.T) [][]float64 {
	t.Helper()
	ds := gen.Generate(gen.Config{Seed: 11, Days: 365})
	rows := make([][]float64, len(ds.Readings))
	for i, readings := range ds.Readings {
		row := make([]float64, 365)
		counts := make([]float64, 365)
		for h, s := range readings {
			if !math.IsNaN(s.Value) {
				row[h/24] += s.Value
				counts[h/24]++
			}
		}
		for day := range row {
			if counts[day] > 0 {
				row[day] /= counts[day]
			}
		}
		rows[i] = row
	}
	d, err := DistanceMatrixCtx(context.Background(), rows, MetricPearson, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// oracleP is the oracle's joint matrix for n clustered points, nested and
// flat.
func oracleP(n int) ([][]float64, []float64) {
	rows, _ := threeClusters(n, 24, 4)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	pRef := refConditionalToJoint(refPerplexitySearch(d, 20))
	return pRef, flatten(pRef)
}

func squareMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// TestGradientMatchesOracle: on random layouts, from the tight initial
// cloud to a spread-out late one, the pairs-once tile pass gives the
// normalizer Z and the gradient of the three-pass oracle, with and without
// early exaggeration, for every worker count. The sizes put a tile edge
// on each side of the last row and leave a ragged last tile.
func TestGradientMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{2, 63, 64, 65, 131, 150} {
		rng := rand.New(rand.NewSource(21))
		pRef, p := oracleP(n)
		q, numRef, pEx := squareMatrix(n), squareMatrix(n), squareMatrix(n)
		gradRef := make([][2]float64, n)
		for _, scale := range []float64{1e-2, 1, 30} {
			y := randomEmbedding(rng, n, scale)
			refComputeQ(y, q, numRef)
			zRef := 0.0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					zRef += 2 * numRef[i][j]
				}
			}
			for _, exagger := range []float64{1, 12} {
				for i := range pEx {
					for j := range pEx[i] {
						pEx[i][j] = pRef[i][j] * exagger
					}
				}
				refGradKL(pEx, q, numRef, y, gradRef)
				gmax := 0.0
				for _, g := range gradRef {
					gmax = math.Max(gmax, math.Max(math.Abs(g[0]), math.Abs(g[1])))
				}
				if gmax == 0 {
					// n = 2 without exaggeration: P = Q = 1/2 on every
					// layout, so the exact gradient is 0 and the pass's
					// attractive and repulsive terms cancel to rounding.
					// Bound it by the size of those terms instead.
					gmax = 4 * pRef[0][1] * numRef[0][1] * math.Sqrt(y.SquaredDist(0, 1))
				}
				for _, workers := range []int{1, 2, 3, 8} {
					g := newGradient(p, n, workers)
					if err := g.compute(ctx, y, exagger); err != nil {
						t.Fatal(err)
					}
					if math.Abs(g.z-zRef) > 1e-12*zRef {
						t.Errorf("n=%d scale=%g workers=%d: Z = %v, oracle %v", n, scale, workers, g.z, zRef)
					}
					for i := range g.dy {
						for k := 0; k < 2; k++ {
							if math.Abs(g.dy[i][k]-gradRef[i][k]) > 1e-12*gmax {
								t.Fatalf("n=%d scale=%g exagger=%g workers=%d: grad[%d][%d] = %v, oracle %v",
									n, scale, exagger, workers, i, k, g.dy[i][k], gradRef[i][k])
							}
						}
					}
				}
			}
		}
	}
}

// TestKLMatchesOracle: the one-pass KL, P's own terms taken once, equals
// the oracle's per-pair Eq. 1 on random layouts at every scale, and on two
// tight clusters 1e6 apart, where q falls under the 1e-12 floor and the
// per-pair fallback has to run.
func TestKLMatchesOracle(t *testing.T) {
	const n = 131
	rng := rand.New(rand.NewSource(23))
	pRef, p := oracleP(n)
	q, num := squareMatrix(n), squareMatrix(n)

	var layouts []Embedding
	for _, scale := range []float64{1e-2, 1, 30} {
		layouts = append(layouts, randomEmbedding(rng, n, scale))
	}
	split := randomEmbedding(rng, n, 1e-3)
	for i := 0; i < n/2; i++ {
		split[i][0] += 1e6
	}
	layouts = append(layouts, split)

	ctx := context.Background()
	for k, y := range layouts {
		refComputeQ(y, q, num)
		want := refKLDivergence(pRef, q, false, 1)
		if k == len(layouts)-1 && q[0][n-1] != 1e-12 {
			t.Fatalf("split layout: q = %v across the clusters, want the 1e-12 floor", q[0][n-1])
		}
		for _, workers := range []int{1, 2, 3} {
			got, err := newGradient(p, n, workers).kl(ctx, y)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("layout %d workers=%d: KL = %v, oracle %v", k, workers, got, want)
			}
		}
	}
}

// TestPerplexitySearchMatchesOracle: the one-exp entropy finds the same
// conditional rows as the exp-and-log oracle, each at the target
// perplexity, including rows whose neighbours are all (uniform fallback)
// or partly out of the Gaussian's floating-point reach.
func TestPerplexitySearchMatchesOracle(t *testing.T) {
	rows, _ := threeClusters(80, 16, 7)
	clustered, _ := DistanceMatrix(rows, MetricEuclidean)

	const huge = 1e200 // squares to +Inf
	allHuge := make([][]float64, 12)
	partHuge := make([][]float64, 12)
	for i := range allHuge {
		allHuge[i] = make([]float64, 12)
		partHuge[i] = make([]float64, 12)
		for j := range allHuge[i] {
			if i == j {
				continue
			}
			allHuge[i][j] = huge
			partHuge[i][j] = 1 + math.Abs(float64(i-j))/4
			if (i+j)%5 == 0 {
				partHuge[i][j] = huge
			}
		}
	}

	cases := []struct {
		name       string
		d          [][]float64
		perplexity float64
		uniform    bool
	}{
		{"clustered", clustered, 12, false},
		{"clustered-wide", clustered, 26, false},
		{"part-huge", partHuge, 3, false},
		{"all-huge", allHuge, 3, true},
	}
	for _, tc := range cases {
		n := len(tc.d)
		want := refPerplexitySearch(tc.d, tc.perplexity)
		for _, workers := range []int{1, 3} {
			got, err := perplexitySearch(context.Background(), tc.d, tc.perplexity, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				h := 0.0
				for j := 0; j < n; j++ {
					v := got[i*n+j]
					if math.Abs(v-want[i][j]) > 1e-9 {
						t.Fatalf("%s workers=%d: p[%d|%d] = %v, oracle %v", tc.name, workers, j, i, v, want[i][j])
					}
					if v > 0 {
						h -= v * math.Log(v)
					}
				}
				target := math.Log(tc.perplexity)
				if tc.uniform {
					target = math.Log(float64(n - 1))
				}
				// 1e-5 is the search's own tolerance; the slack covers
				// evaluating the entropy by a different formula here.
				if math.Abs(h-target) > 1e-5+1e-9 {
					t.Fatalf("%s workers=%d: row %d entropy %v, want %v", tc.name, workers, i, h, target)
				}
			}
		}
	}
}

// TestTSNEKLNearOracle: the rewrite changes rounding, not the optimizer, so
// 500 iterations end at layouts as good as the oracle's. Single runs are
// chaotic (see TestTSNEFirstIterationsMatchOracle) and land a percent or
// two apart either way, so the comparison is between means over seeds.
func TestTSNEKLNearOracle(t *testing.T) {
	// 150 points: clusters of 50 exceed the perplexity, which keeps the KL
	// well away from 0, where a relative bound would only measure noise.
	rows, _ := threeClusters(150, 24, 4)
	clustered, _ := DistanceMatrix(rows, MetricPearson)
	type fixture struct {
		name  string
		d     [][]float64
		seeds []int64
	}
	fixtures := []fixture{{"clustered", clustered, []int64{1, 2, 3}}}
	if !testing.Short() {
		fixtures = append(fixtures, fixture{"gen-460x365", genDailyFixture(t), []int64{1, 2}})
	}
	ctx := context.Background()
	for _, f := range fixtures {
		var got, want float64
		for _, seed := range f.seeds {
			cfg := TSNEConfig{Seed: seed}
			ref, err := refTSNE(ctx, f.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := TSNE(ctx, f.d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != 500 || ref.Iterations != 500 {
				t.Fatalf("%s: ran %d iterations, oracle %d, want 500", f.name, res.Iterations, ref.Iterations)
			}
			if len(res.KLTrace) != len(ref.KLTrace) {
				t.Errorf("%s: %d KL trace points, oracle %d", f.name, len(res.KLTrace), len(ref.KLTrace))
			}
			got += res.KL
			want += ref.KL
		}
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("%s: mean final KL %v, oracle %v (over 5%% apart)",
				f.name, got/float64(len(f.seeds)), want/float64(len(f.seeds)))
		}
	}
}

// TestTSNEFirstIterationsMatchOracle: the optimizer is chaotic under early
// exaggeration (a 1e-15 rounding difference grows tenfold every few
// iterations), so whole runs are compared by their KL above; over the
// first iterations the two implementations still trace the same path.
func TestTSNEFirstIterationsMatchOracle(t *testing.T) {
	rows, _ := threeClusters(90, 24, 4)
	d, _ := DistanceMatrix(rows, MetricPearson)
	cfg := TSNEConfig{Seed: 3, Iterations: 5}
	want, err := refTSNE(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TSNE(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Embedding {
		for k := 0; k < 2; k++ {
			if math.Abs(got.Embedding[i][k]-want.Embedding[i][k]) > 1e-9 {
				t.Fatalf("point %d after 5 iterations = %v, oracle %v", i, got.Embedding[i], want.Embedding[i])
			}
		}
	}
	if len(got.KLTrace) != 1 || math.Abs(got.KLTrace[0]-want.KLTrace[0]) > 1e-9*want.KLTrace[0] {
		t.Errorf("KL trace %v, oracle %v", got.KLTrace, want.KLTrace)
	}
}

// TestTSNEIdenticalAcrossWorkers: the embedding, the KL and its trace are
// bit-identical for every worker count.
func TestTSNEIdenticalAcrossWorkers(t *testing.T) {
	rows, _ := threeClusters(520, 24, 8)
	d, _ := DistanceMatrix(rows, MetricPearson)
	var base *TSNEResult
	for _, workers := range []int{1, 2, 3, 8} {
		res, err := TSNE(context.Background(), d, TSNEConfig{Seed: 5, Iterations: 120, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		for i := range res.Embedding {
			if res.Embedding[i] != base.Embedding[i] {
				t.Fatalf("workers=%d: point %d = %v, workers=1 gave %v", workers, i, res.Embedding[i], base.Embedding[i])
			}
		}
		if res.KL != base.KL {
			t.Errorf("workers=%d: KL %v, workers=1 gave %v", workers, res.KL, base.KL)
		}
		for k := range res.KLTrace {
			if res.KLTrace[k] != base.KLTrace[k] {
				t.Errorf("workers=%d: KL trace[%d] %v, workers=1 gave %v", workers, k, res.KLTrace[k], base.KLTrace[k])
			}
		}
	}
}

// flipCtx reports no error for the first `after` Err() probes, then is
// permanently cancelled.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestTSNECancelMidRun: a context cancelled partway through the
// optimization stops it at the next probe — the iteration's own check or
// the fan-out's — not after the remaining iterations.
func TestTSNECancelMidRun(t *testing.T) {
	rows, _ := threeClusters(260, 16, 1)
	d, _ := DistanceMatrix(rows, MetricEuclidean)
	for _, workers := range []int{1, 2} {
		ctx := &flipCtx{Context: context.Background(), after: 400}
		_, err := TSNE(ctx, d, TSNEConfig{Workers: workers, Iterations: 1 << 30})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Every probe after the flip fails, and the first failure ends the
		// run: one for the serial path, at most one per worker otherwise.
		if extra := ctx.calls.Load() - ctx.after; extra > int64(workers) {
			t.Errorf("workers=%d: %d probes after cancellation, want at most %d", workers, extra, workers)
		}
	}
}

// TestPearsonMatrixMatchesStat: the standardize-once matrix is the
// per-pair stat.PearsonDistance, including a constant row (r = 0, d = 1)
// and NaN-bearing rows (clamped to 0).
func TestPearsonMatrixMatchesStat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, width = 40, 365
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for k := range rows[i] {
			rows[i][k] = 50 + rng.NormFloat64()*float64(1+i)
		}
	}
	for k := range rows[3] {
		rows[3][k] = 7.25 // constant: zero variance
	}
	for k := range rows[9] {
		rows[9][k] = 0 // idle meter
	}
	rows[5][17] = math.NaN()
	rows[6][0] = math.Inf(1)

	d, err := DistanceMatrixCtx(context.Background(), rows, MetricPearson, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want, err := stat.PearsonDistance(rows[i], rows[j])
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(want) || want < 0 {
				want = 0
			}
			if math.Abs(d[i][j]-want) > 1e-12 {
				t.Fatalf("d[%d][%d] = %v, stat.PearsonDistance %v", i, j, d[i][j], want)
			}
		}
	}
	if d[3][20] != 1 || d[3][9] != 1 {
		t.Errorf("constant rows: d = %v, %v, want 1", d[3][20], d[3][9])
	}
	if d[5][20] != 0 || d[5][3] != 1 {
		t.Errorf("NaN row: d = %v (vs varying), %v (vs constant), want 0, 1", d[5][20], d[5][3])
	}
}
