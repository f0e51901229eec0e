package reduce

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"vap/internal/exec"
)

// TSNEConfig tunes the exact t-SNE optimizer. Zero values take the
// defaults noted per field (matching van der Maaten & Hinton 2008).
type TSNEConfig struct {
	Perplexity float64 // default 30 (clamped to (n-1)/3)
	Iterations int     // default 500
	LearnRate  float64 // default 200
	Momentum   float64 // early momentum, default 0.5
	FinalMom   float64 // momentum after momentum switch, default 0.8
	MomSwitch  int     // iteration of the momentum switch, default 250
	Exagger    float64 // early exaggeration factor, default 12
	ExaggerEnd int     // iteration early exaggeration stops, default 100
	Seed       int64   // RNG seed for the initial layout
	// MinGradNorm stops early when the gradient norm falls below it;
	// default 1e-7.
	MinGradNorm float64
	// Workers fans the perplexity search and each iteration's pass over
	// the pairs out across row bands: 0 selects runtime.GOMAXPROCS(0).
	// The result is bit-identical for every worker count.
	Workers int
}

func (c *TSNEConfig) defaults(n int) {
	if c.Perplexity <= 0 {
		c.Perplexity = 30
	}
	maxPerp := float64(n-1) / 3
	if maxPerp >= 1 && c.Perplexity > maxPerp {
		c.Perplexity = maxPerp
	}
	if c.Iterations <= 0 {
		c.Iterations = 500
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 200
	}
	if c.Momentum <= 0 {
		c.Momentum = 0.5
	}
	if c.FinalMom <= 0 {
		c.FinalMom = 0.8
	}
	if c.MomSwitch <= 0 {
		c.MomSwitch = 250
	}
	if c.Exagger <= 0 {
		c.Exagger = 12
	}
	if c.ExaggerEnd <= 0 {
		c.ExaggerEnd = 100
	}
	if c.MinGradNorm <= 0 {
		c.MinGradNorm = 1e-7
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// TSNEResult carries the embedding and optimization diagnostics.
type TSNEResult struct {
	Embedding  Embedding
	KL         float64   // final KL(P || Q), Eq. 1
	KLTrace    []float64 // KL every 50 iterations
	Iterations int
}

// TSNE computes an exact t-SNE embedding of the pairwise distance matrix d.
// P is built with Gaussian kernels whose bandwidths are binary-searched to
// match the configured perplexity; Q is the Student-t kernel of Eq. 2. The
// context allows cancellation of long runs (the API server uses this).
//
// P is one flat row-major array and Q is never stored: each iteration makes
// a single row-parallel pass over the pairs (see gradient). Every row is
// computed the same way whatever band it falls in, and the cross-row
// reductions run serially in row order, so the embedding does not depend
// on cfg.Workers.
func TSNE(ctx context.Context, d [][]float64, cfg TSNEConfig) (*TSNEResult, error) {
	n := len(d)
	if n < 2 {
		return nil, fmt.Errorf("%w: t-SNE needs at least 2 points, got %d", ErrInput, n)
	}
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("%w: distance matrix row %d has %d cols, want %d", ErrInput, i, len(d[i]), n)
		}
	}
	cfg.defaults(n)

	p, err := perplexitySearch(ctx, d, cfg.Perplexity, cfg.Workers)
	if err != nil {
		return nil, err
	}
	conditionalToJoint(p, n)

	rng := rand.New(rand.NewSource(cfg.Seed))
	y := make(Embedding, n)
	for i := range y {
		y[i][0] = rng.NormFloat64() * 1e-2
		y[i][1] = rng.NormFloat64() * 1e-2
	}
	vel := make([][2]float64, n)
	gains := make([][2]float64, n)
	for i := range gains {
		gains[i] = [2]float64{1, 1}
	}
	grad := newGradient(p, n, cfg.Workers)

	res := &TSNEResult{}
	for iter := 1; iter <= cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Early exaggeration scales P inside the gradient only.
		exagger := 1.0
		if iter <= cfg.ExaggerEnd {
			exagger = cfg.Exagger
		}
		if err := grad.compute(ctx, y, exagger); err != nil {
			return nil, err
		}
		if iter%50 == 0 || iter == cfg.Iterations {
			// Like the gradient, a trace point describes the layout the
			// iteration starts from.
			kl, err := grad.klDivergence(ctx, y)
			if err != nil {
				return nil, err
			}
			res.KLTrace = append(res.KLTrace, kl)
		}

		gnorm := 0.0
		mom := cfg.Momentum
		if iter >= cfg.MomSwitch {
			mom = cfg.FinalMom
		}
		for i := range y {
			for k := 0; k < 2; k++ {
				g := grad.dy[i][k]
				gnorm += g * g
				// Adaptive gains per Jacobs (1988): increase when gradient
				// and velocity agree in direction, decay otherwise.
				if (g > 0) == (vel[i][k] > 0) {
					gains[i][k] *= 0.8
				} else {
					gains[i][k] += 0.2
				}
				if gains[i][k] < 0.01 {
					gains[i][k] = 0.01
				}
				vel[i][k] = mom*vel[i][k] - cfg.LearnRate*gains[i][k]*g
				y[i][k] += vel[i][k]
			}
		}
		centerEmbedding(y)
		res.Iterations = iter
		if math.Sqrt(gnorm) < cfg.MinGradNorm && exagger == 1 {
			break
		}
	}
	if res.KL, err = grad.klDivergence(ctx, y); err != nil {
		return nil, err
	}
	res.Embedding = y
	return res, nil
}

// perplexitySearch finds per-point Gaussian precisions beta_i = 1/(2
// sigma_i^2) such that the Shannon entropy of the conditional distribution
// p_{j|i} equals ln(perplexity), and returns the conditional matrix, flat
// and row-major. Rows are independent and searched in parallel bands.
func perplexitySearch(ctx context.Context, d [][]float64, perplexity float64, workers int) ([]float64, error) {
	n := len(d)
	target := math.Log(perplexity)
	p := make([]float64, n*n)
	err := exec.ForEachChunk(ctx, n, workers, func(lo, hi int) error {
		d2 := make([]float64, n)
		for i := lo; i < hi; i++ {
			for j, v := range d[i] {
				// Capped so an overflowing square stays a kernel of
				// exactly 0 and not Inf*0 in the entropy's weighted sum.
				d2[j] = math.Min(v*v, math.MaxFloat64)
			}
			row := p[i*n : (i+1)*n]
			betaMin, betaMax := math.Inf(-1), math.Inf(1)
			beta := 1.0
			const tol = 1e-5
			var sum float64
			for tries := 0; tries < 64; tries++ {
				var h float64
				h, sum = condRow(d2, i, beta, row)
				diff := h - target
				if math.Abs(diff) < tol {
					break
				}
				if diff > 0 { // entropy too high -> narrower kernel
					betaMin = beta
					if math.IsInf(betaMax, 1) {
						beta *= 2
					} else {
						beta = (beta + betaMax) / 2
					}
				} else {
					betaMax = beta
					if math.IsInf(betaMin, -1) {
						beta /= 2
					} else {
						beta = (beta + betaMin) / 2
					}
				}
			}
			for j := range row {
				row[j] /= sum
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// condRow fills row with the unnormalized kernels e_j = exp(-beta d2_j) of
// point i's squared distances d2 and returns their sum S (p_{j|i} = e_j/S)
// and the entropy H(P_i) in nats, as
// H = -sum p_j ln p_j = ln S + beta * sum(d2_j e_j) / S,
// so a bisection step costs one exp per element, no log and no division.
func condRow(d2 []float64, i int, beta float64, row []float64) (h, sum float64) {
	// Point i itself is left out by folding the two sides of it
	// separately, which keeps the inner loop branch-free.
	row[i] = 0
	sum, wsum := gaussKernels(d2[:i], beta, row[:i])
	s, w := gaussKernels(d2[i+1:], beta, row[i+1:])
	sum, wsum = sum+s, wsum+w
	if sum == 0 {
		// Degenerate: all distances huge; fall back to uniform.
		for j := range row {
			if j != i {
				row[j] = 1
			}
		}
		n := float64(len(d2) - 1)
		return math.Log(n), n
	}
	return math.Log(sum) + beta*wsum/sum, sum
}

// gaussKernels writes e_j = exp(-beta d2_j) into out and returns sum e_j
// and sum d2_j e_j.
func gaussKernels(d2 []float64, beta float64, out []float64) (sum, wsum float64) {
	out = out[:len(d2)]
	for j, v := range d2 {
		e := math.Exp(-v * beta)
		out[j] = e
		sum += e
		wsum += v * e
	}
	return sum, wsum
}

// conditionalToJoint symmetrizes in place: P_ij = (p_{j|i} + p_{i|j}) / 2n,
// floored to keep the KL well defined.
func conditionalToJoint(p []float64, n int) {
	inv := 1 / (2 * float64(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (p[i*n+j] + p[j*n+i]) * inv
			if v < 1e-12 {
				v = 1e-12
			}
			p[i*n+j] = v
			p[j*n+i] = v
		}
	}
}

// gradient evaluates dKL/dy for one joint matrix P (flat, row-major).
//
// With the Student-t kernel k_ij = (1 + ||y_i - y_j||^2)^-1 of Eq. 2 and
// q_ij = k_ij/Z, the gradient 4 * sum_j (p_ij - q_ij) k_ij (y_i - y_j)
// splits into an attractive and a repulsive sum,
//
//	4 * ( sum_j p_ij k_ij (y_i - y_j)  -  (1/Z) sum_j k_ij^2 (y_i - y_j) ),
//
// neither of which needs the normalizer Z = sum k_ij while it is being
// accumulated. One pass over the pairs therefore yields both sums and each
// row's share of Z; no n x n kernel or Q matrix is stored. (The 1e-12
// floor under q_ij exists for the KL's logarithm; in the gradient it could
// move a term by at most 1e-12 * k_ij * |y_i - y_j| <= 5e-13 and is left
// out.)
type gradient struct {
	p       []float64
	n       int
	workers int

	dy [][2]float64 // dKL/dy of the last compute
	z  float64      // Z of the last compute

	attr, rep [][2]float64 // per-row attractive / repulsive sums
	rowAcc    []float64    // per-row partials of Z, then of the KL
}

func newGradient(p []float64, n, workers int) *gradient {
	return &gradient{
		p: p, n: n, workers: workers,
		dy:   make([][2]float64, n),
		attr: make([][2]float64, n), rep: make([][2]float64, n),
		rowAcc: make([]float64, n),
	}
}

// compute fills g.dy and g.z for the layout y, with P scaled by exagger.
func (g *gradient) compute(ctx context.Context, y Embedding, exagger float64) error {
	n := g.n
	err := exec.ForEachChunk(ctx, n, g.workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			// Point i itself is left out by folding the two sides of it
			// separately, which keeps the inner loop branch-free.
			var f pairForces
			f.add(g.p[i*n:i*n+i], y[:i], y[i])
			f.add(g.p[i*n+i+1:(i+1)*n], y[i+1:], y[i])
			g.attr[i] = [2]float64{f.ax, f.ay}
			g.rep[i] = [2]float64{f.rx, f.ry}
			g.rowAcc[i] = f.z
		}
		return nil
	})
	if err != nil {
		return err
	}
	z := 0.0
	for _, s := range g.rowAcc {
		z += s
	}
	if z == 0 {
		z = 1
	}
	g.z = z
	for i := range g.dy {
		g.dy[i][0] = 4 * (exagger*g.attr[i][0] - g.rep[i][0]/z)
		g.dy[i][1] = 4 * (exagger*g.attr[i][1] - g.rep[i][1]/z)
	}
	return nil
}

// pairForces accumulates one point's sums over a run of other points.
type pairForces struct {
	ax, ay float64 // sum p_ij k_ij (y_i - y_j)
	rx, ry float64 // sum k_ij^2 (y_i - y_j)
	z      float64 // sum k_ij
}

func (f *pairForces) add(prow []float64, ys Embedding, yi [2]float64) {
	ys = ys[:len(prow)]
	ax, ay, rx, ry, z := f.ax, f.ay, f.rx, f.ry, f.z
	for j, pij := range prow {
		dx, dy := yi[0]-ys[j][0], yi[1]-ys[j][1]
		k := 1 / (1 + dx*dx + dy*dy)
		z += k
		pk, kk := pij*k, k*k
		ax += pk * dx
		ay += pk * dy
		rx += kk * dx
		ry += kk * dy
	}
	f.ax, f.ay, f.rx, f.ry, f.z = ax, ay, rx, ry, z
}

// klDivergence evaluates Eq. 1 for the layout y. It depends on no earlier
// compute: a first pass over the pairs sums the kernels into Z, a second
// the KL terms, per-row partials added in row order both times.
func (g *gradient) klDivergence(ctx context.Context, y Embedding) (float64, error) {
	n := g.n
	z, err := g.sumRows(ctx, func(i int) float64 {
		s := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				s += 1 / (1 + y.SquaredDist(i, j))
			}
		}
		return s
	})
	if err != nil {
		return 0, err
	}
	if z == 0 {
		z = 1
	}
	return g.sumRows(ctx, func(i int) float64 {
		kl := 0.0
		for j, pij := range g.p[i*n : (i+1)*n] {
			if j == i {
				continue
			}
			q := 1 / (1 + y.SquaredDist(i, j)) / z
			if q < 1e-12 {
				q = 1e-12
			}
			kl += pij * math.Log(pij/q)
		}
		return kl
	})
}

// sumRows evaluates row(i) for every point in parallel bands and adds the
// results in row order.
func (g *gradient) sumRows(ctx context.Context, row func(i int) float64) (float64, error) {
	err := exec.ForEachChunk(ctx, g.n, g.workers, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			g.rowAcc[i] = row(i)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, v := range g.rowAcc {
		sum += v
	}
	return sum, nil
}

func centerEmbedding(y Embedding) {
	var cx, cy float64
	for _, pt := range y {
		cx += pt[0]
		cy += pt[1]
	}
	cx /= float64(len(y))
	cy /= float64(len(y))
	for i := range y {
		y[i][0] -= cx
		y[i][1] -= cy
	}
}
