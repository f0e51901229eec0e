package reduce

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"vap/internal/exec"
	"vap/internal/gen"
	"vap/internal/stat"
)

// newTestGradient is a gradient on a team of workers that the test closes.
func newTestGradient(t *testing.T, p []float64, n, workers int) *gradient {
	team := exec.NewTeam(workers)
	t.Cleanup(team.Close)
	return newGradient(p, n, team, hasAVX2)
}

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

// genDailyFixture is the benchmark's reduce input: the 460 meters gen
// draws from seed as rows of 365 daily mean readings, under the Pearson
// distance.
func genDailyFixture(t *testing.T, seed int64) [][]float64 {
	t.Helper()
	ds := gen.Generate(gen.Config{Seed: seed, Days: 365})
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
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
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
					g := newTestGradient(t, p, n, workers)
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
			got, err := newTestGradient(t, p, n, workers).kl(ctx, y)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("layout %d workers=%d: KL = %v, oracle %v", k, workers, got, want)
			}
		}
	}
}

// TestPerplexitySearchMatchesOracle: the shifted-kernel Halley search
// finds the same conditional rows as the exp-and-log bisection oracle,
// each at the target perplexity, including rows whose neighbours are all
// (uniform) or partly out of the Gaussian's floating-point reach.
func TestPerplexitySearchMatchesOracle(t *testing.T) {
	rows, _ := threeClusters(80, 16, 7)
	clustered, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)

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
			got, _, err := perplexitySearch(context.Background(), tc.d, tc.perplexity, workers)
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
				// The search stops within 1e-12; the slack covers
				// evaluating the entropy by a different formula here.
				if math.Abs(h-target) > 1e-9 {
					t.Fatalf("%s workers=%d: row %d entropy %v, want %v", tc.name, workers, i, h, target)
				}
			}
		}
	}
}

// rowEntropies returns the entropy, in nats, of each row of the flat
// n x n conditional matrix p.
func rowEntropies(p []float64, n int) []float64 {
	hs := make([]float64, n)
	for i := range hs {
		for _, v := range p[i*n : (i+1)*n] {
			if v > 0 {
				hs[i] -= v * math.Log(v)
			}
		}
	}
	return hs
}

// TestPerplexitySearchFarBunchedRow: a row whose neighbours all sit far
// away and close together needs a kernel so narrow that exp(-beta d^2)
// underflows for every one of them before the entropy falls to the
// target. Unshifted kernels then sum to 0, the row falls back to uniform
// (H = ln(n-1)) and no neighbourhood is found; shifted ones keep the
// nearest kernel at 1. The generated benchmark stores of seeds 202 and 301
// each have such a row (317 and 249).
func TestPerplexitySearchFarBunchedRow(t *testing.T) {
	const perplexity = 12
	for _, n := range []int{40, 100, 460} {
		d := squareMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					d[i][j] = math.Sqrt(0.1 + 0.01*math.Abs(float64(i-j)))
				}
			}
		}
		for j := 1; j < n; j++ {
			d[0][j] = math.Sqrt(0.73 + 1e-4*float64(j))
			d[j][0] = d[0][j]
		}
		p, _, err := perplexitySearch(context.Background(), d, perplexity, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range rowEntropies(p, n) {
			if math.Abs(h-math.Log(perplexity)) > 1e-9 {
				t.Fatalf("n=%d: row %d entropy %v, want ln %d = %v", n, i, h, perplexity, math.Log(perplexity))
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, seed := range []int64{202, 301} {
		d := genDailyFixture(t, seed)
		p, _, err := perplexitySearch(context.Background(), d, 30, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range rowEntropies(p, len(d)) {
			if math.Abs(h-math.Log(30)) > 1e-9 {
				t.Fatalf("gen seed %d: row %d entropy %v, want ln 30 = %v", seed, i, h, math.Log(30))
			}
		}
	}
}

// TestPerplexitySearchUnreachableTarget: a row whose target entropy no
// kernel width reaches ends at the limit nearest to it. Six neighbours
// tied at the nearest distance cannot make a perplexity of 3, so the row
// narrows to exactly those six; two neighbours in reach cannot make one
// of 3 either, so it widens to those two, and the out-of-reach rest stay
// at exactly 0.
func TestPerplexitySearchUnreachableTarget(t *testing.T) {
	const n, huge = 12, 1e200
	tied, few := squareMatrix(n), squareMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				tied[i][j], few[i][j] = 2, 1+math.Abs(float64(i-j))/4
			}
		}
	}
	for j := 1; j <= 6; j++ {
		tied[0][j], tied[j][0] = 1, 1
	}
	for j := 3; j < n; j++ {
		few[0][j], few[j][0] = huge, huge
	}
	for _, tc := range []struct {
		name string
		d    [][]float64
		want []float64 // row 0
	}{
		{"six tied", tied, []float64{0, 1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6, 1. / 6, 0, 0, 0, 0, 0}},
		{"two in reach", few, []float64{0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	} {
		p, _, err := perplexitySearch(context.Background(), tc.d, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range tc.want {
			if v := p[j]; math.Abs(v-w) > 1e-9 || (w == 0 && v != 0) {
				t.Fatalf("%s: p[%d|0] = %v, want %v", tc.name, j, v, w)
			}
		}
	}
}

// TestSearchRowOvershootsClosedBracket: on this row, drawn from a random
// heavy-tailed matrix, one Halley step leaves the bracket the evaluations
// before it closed; it is replaced by the bracket's geometric midpoint,
// and the row still ends on target.
func TestSearchRowOvershootsClosedBracket(t *testing.T) {
	di := []float64{4.300304941478066, 0, 3.276626994745726, 0.1373038251641513,
		1.769107135070473, 3.809474200822183, 0.06589005896762794, 1.6509371541705753,
		1.3754535468446791, 1.2646706633309592, 1.0670660215698846, 28.64429520014548,
		0.41623093849620346, 2.28519881503486, 1.0788375495440137, 1.0769361411998826}
	const perplexity = 2.2571793275298173
	n := len(di)
	out := make([]float64, n)
	searchRow(di, 1, perplexity, make([]float64, n-1), make([]float64, n-1), out)
	h := 0.0
	for _, v := range out {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	if math.Abs(h-math.Log(perplexity)) > 1e-9 {
		t.Fatalf("entropy %v, want %v", h, math.Log(perplexity))
	}
}

// TestPerplexitySearchWorkBudget counts the search's kernel passes, each
// one exp per neighbour, over the benchmark's reduce input. The count is
// a property of the rows alone, so it is the same for every worker count
// and on any host varies only with math.Exp's last bits, and a slower
// search fails here rather than only on a quiet benchmark machine. The
// search takes 2,428 passes (5.28 per row); the bisection from beta = 1
// it replaced took 29.8 per row.
func TestPerplexitySearchWorkBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 365-day benchmark fixture")
	}
	d := genDailyFixture(t, 11)
	budget := 6 * len(d)
	first := -1
	for _, workers := range []int{1, 2, 4} {
		_, steps, err := perplexitySearch(context.Background(), d, 30, workers)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = steps
			if steps > budget {
				t.Errorf("%d kernel passes over %d rows (%.2f per row), budget %d", steps, len(d), float64(steps)/float64(len(d)), budget)
			}
		} else if steps != first {
			t.Errorf("workers=%d: %d kernel passes, workers=1 took %d", workers, steps, first)
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
	clustered, _ := DistanceMatrixCtx(context.Background(), rows, MetricPearson, 1)
	type fixture struct {
		name  string
		d     [][]float64
		seeds []int64
	}
	fixtures := []fixture{{"clustered", clustered, []int64{1, 2, 3}}}
	if !testing.Short() {
		fixtures = append(fixtures, fixture{"gen-460x365", genDailyFixture(t, 11), []int64{1, 2}})
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
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricPearson, 1)
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
	if math.Abs(got.KL-want.KL) > 1e-9*want.KL {
		t.Errorf("KL after 5 iterations = %v, oracle %v", got.KL, want.KL)
	}
}

// TestTSNEIdenticalAcrossWorkers: the embedding and the KL are
// bit-identical for every worker count.
func TestTSNEIdenticalAcrossWorkers(t *testing.T) {
	rows, _ := threeClusters(520, 24, 8)
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricPearson, 1)
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
// the fan-out's — not after the remaining iterations, and leaves none of
// the run's helper goroutines behind.
func TestTSNECancelMidRun(t *testing.T) {
	rows, _ := threeClusters(260, 16, 1)
	d, _ := DistanceMatrixCtx(context.Background(), rows, MetricEuclidean, 1)
	for _, workers := range []int{1, 2, 4} {
		before := goroutines()
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
		// The team has joined its helpers before TSNE returns.
		checkNoLeakedGoroutines(t, before, "vap/internal/exec.(*Team).help")
	}
}

// goroutines returns the stacks of the running goroutines by id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(g, "goroutine "), " "); ok {
			out[id] = g
		}
	}
	return out
}

// checkNoLeakedGoroutines fails t if a goroutine whose stack holds fn was
// started after before was taken and is still alive. Goroutines are given a
// second to wind down.
func checkNoLeakedGoroutines(t testing.TB, before map[string]string, fn string) {
	t.Helper()
	var leaked []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		leaked = leaked[:0]
		for id, g := range goroutines() {
			if _, old := before[id]; !old && strings.Contains(g, fn) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, g := range leaked {
		t.Errorf("leaked goroutine:\n%s", g)
	}
}

// pearson is the Pearson correlation coefficient of x and y, the textbook
// two-pass formula that DistanceMatrixCtx's standardize-once matrix is held
// to. A zero-variance input yields 0 (no linear association measurable),
// which keeps the distance of a constant profile, such as the paper's
// "idle" and "constant high" patterns, well defined.
func pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) == 0 {
		return 0, stat.ErrLength
	}
	mx, my := stat.Mean(x), stat.Mean(y)
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

// pearsonDistance is 1 - r, the paper's trend-aware dissimilarity in
// [0, 2].
func pearsonDistance(x, y []float64) (float64, error) {
	r, err := pearson(x, y)
	if err != nil {
		return 0, err
	}
	return 1 - r, nil
}

// TestPearsonMatrixMatchesStat: the standardize-once matrix is the
// per-pair pearsonDistance, including a constant row (r = 0, d = 1)
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
			want, err := pearsonDistance(rows[i], rows[j])
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(want) || want < 0 {
				want = 0
			}
			if math.Abs(d[i][j]-want) > 1e-12 {
				t.Fatalf("d[%d][%d] = %v, pearsonDistance %v", i, j, d[i][j], want)
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

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = pearson(x, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
}

func TestPearsonConstantInput(t *testing.T) {
	r, err := pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("constant input correlation = %v, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := pearson(nil, nil); err == nil {
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
		r1, err1 := pearson(x, y)
		// Affine transform of x must not change r (positive scale).
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = 3*x[i] + 7
		}
		r2, err2 := pearson(x2, y)
		return err1 == nil && err2 == nil && math.Abs(r1-r2) <= 1e-9
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
		d, err := pearsonDistance(x, y)
		return err == nil && d >= 0 && d <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
