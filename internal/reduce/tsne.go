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
	// Workers fans the perplexity search out across row bands and each
	// iteration's pass over the pairs across fixed tiles of rows: 0
	// selects runtime.GOMAXPROCS(0). The result is bit-identical for
	// every worker count.
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
// a single pass that visits each unordered pair once, in tiles of rows
// that the workers share (see gradient). The tiles do not depend on
// cfg.Workers, each is computed by one goroutine into its own memory, and
// the reductions across tiles run serially in tile order, so neither does
// the embedding.
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
			kl, err := grad.kl(ctx, y)
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
	if res.KL, err = grad.kl(ctx, y); err != nil {
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

// tileRows is the number of rows one pair tile owns. It is fixed, not
// derived from the worker count, so the order every sum is taken in — and
// with it the embedding — is the same however the tiles are scheduled.
const tileRows = 64

// gradient evaluates dKL/dy for one joint matrix P (flat, row-major).
//
// With the Student-t kernel k_ij = (1 + ||y_i - y_j||^2)^-1 of Eq. 2 and
// q_ij = k_ij/Z, the gradient 4 * sum_j (p_ij - q_ij) k_ij (y_i - y_j)
// splits into an attractive and a repulsive sum,
//
//	4 * ( sum_j p_ij k_ij (y_i - y_j)  -  (1/Z) sum_j k_ij^2 (y_i - y_j) ),
//
// neither of which needs the normalizer Z = sum k_ij while it is being
// accumulated. k and P are symmetric and each pair's two terms are
// antisymmetric, so a pass visits each unordered pair i < j once: the rows
// are cut into tiles of tileRows, and a tile owns the pairs (i, j > i) of
// its rows. Row i's sums stay in registers; row j's share is subtracted
// into the tile's own partial array, so no two tiles write the same
// memory. A serial reduction then adds, for each row, its own sums and
// every tile's partial in tile order. No n x n kernel or Q matrix is
// stored. (The 1e-12 floor under q_ij exists for the KL's logarithm; in
// the gradient it could move a term by at most 1e-12 * k_ij * |y_i - y_j|
// <= 5e-13 and is left out.)
type gradient struct {
	p       []float64
	n       int
	workers int

	// The KL terms that do not depend on the layout:
	// sum_{i != j} p_ij ln p_ij and sum_{i != j} p_ij.
	pLogP, pSum float64

	dy [][2]float64 // dKL/dy of the last compute
	z  float64      // Z of the last compute

	own  [][4]float64   // row i's attractive x, y and repulsive x, y sums over j > i
	part [][][4]float64 // per tile: row j's share of the tile's pairs, at j - the tile's first row
	acc  [][3]float64   // per tile: the pass's scalar sums
}

func newGradient(p []float64, n, workers int) *gradient {
	g := &gradient{
		p: p, n: n, workers: workers,
		dy:  make([][2]float64, n),
		own: make([][4]float64, n),
	}
	for lo := 0; lo < n; lo += tileRows {
		g.part = append(g.part, make([][4]float64, n-lo))
	}
	g.acc = make([][3]float64, len(g.part))
	for i := 0; i < n; i++ {
		for _, pij := range p[i*n+i+1 : (i+1)*n] {
			g.pLogP += 2 * pij * math.Log(pij)
			g.pSum += 2 * pij
		}
	}
	return g
}

// eachTile runs f on the rows [lo, hi) of every tile and keeps its result
// in g.acc. exec.ForEach hands the tiles out in index order, the largest
// first; the callers add g.acc up in tile order, so no sum depends on the
// worker count.
func (g *gradient) eachTile(ctx context.Context, f func(lo, hi int) [3]float64) error {
	return exec.ForEach(ctx, len(g.acc), g.workers, func(t int) error {
		lo := t * tileRows
		g.acc[t] = f(lo, min(lo+tileRows, g.n))
		return nil
	})
}

// compute fills g.dy and g.z for the layout y, with P scaled by exagger.
func (g *gradient) compute(ctx context.Context, y Embedding, exagger float64) error {
	n := g.n
	err := g.eachTile(ctx, func(lo, hi int) [3]float64 {
		part := g.part[lo/tileRows]
		clear(part)
		z := 0.0
		for i := lo; i < hi; i++ {
			var zi float64
			g.own[i], zi = pairRow(y[i], g.p[i*n+i+1:(i+1)*n], y[i+1:], part[i+1-lo:])
			z += zi
		}
		return [3]float64{z}
	})
	if err != nil {
		return err
	}
	z := 0.0
	for _, a := range g.acc {
		z += 2 * a[0]
	}
	if z == 0 {
		z = 1
	}
	g.z = z
	for i := range g.dy {
		s := g.own[i]
		for t := 0; t*tileRows < i; t++ {
			for k, v := range g.part[t][i-t*tileRows] {
				s[k] += v
			}
		}
		g.dy[i][0] = 4 * (exagger*s[0] - s[2]/z)
		g.dy[i][1] = 4 * (exagger*s[1] - s[3]/z)
	}
	return nil
}

// pairRow visits the pairs (i, j) of point yi with the points ys, whose
// P entries are prow, and returns row i's attractive and repulsive sums
// and its sum of kernels; row j's share is subtracted into part[j].
func pairRow(yi [2]float64, prow []float64, ys Embedding, part [][4]float64) (s [4]float64, z float64) {
	ys = ys[:len(prow)]
	part = part[:len(prow)]
	var ax, ay, rx, ry float64
	for j, pij := range prow {
		dx, dy := yi[0]-ys[j][0], yi[1]-ys[j][1]
		k := 1 / (1 + dx*dx + dy*dy)
		pk, kk := pij*k, k*k
		fax, fay, frx, fry := pk*dx, pk*dy, kk*dx, kk*dy
		ax, ay, rx, ry, z = ax+fax, ay+fay, rx+frx, ry+fry, z+k
		pj := &part[j]
		pj[0], pj[1], pj[2], pj[3] = pj[0]-fax, pj[1]-fay, pj[2]-frx, pj[3]-fry
	}
	return [4]float64{ax, ay, rx, ry}, z
}

// kl evaluates Eq. 1 for the layout y; it depends on no earlier compute.
// With q_ij = 1/((1 + d_ij^2) Z),
//
//	KL = sum_{i!=j} p ln p + 2 sum_{i<j} p ln(1 + d^2) + (sum_{i!=j} p) ln Z,
//
// so one pass over the pairs i < j, summing the kernels and p ln(1 + d^2),
// gives the KL with the P-only terms newGradient took. The same pass finds
// the largest 1 + d^2: when the smallest q could fall under the 1e-12
// floor, a second pass evaluates each pair with the floor instead.
func (g *gradient) kl(ctx context.Context, y Embedding) (float64, error) {
	n := g.n
	err := g.eachTile(ctx, func(lo, hi int) [3]float64 {
		var z, pl, wmax float64
		for i := lo; i < hi; i++ {
			prow := g.p[i*n+i+1 : (i+1)*n]
			ys := y[i+1:][:len(prow)]
			for j, pij := range prow {
				dx, dy := y[i][0]-ys[j][0], y[i][1]-ys[j][1]
				w := 1 + dx*dx + dy*dy
				z += 1 / w
				pl += pij * math.Log(w)
				wmax = max(wmax, w)
			}
		}
		return [3]float64{z, pl, wmax}
	})
	if err != nil {
		return 0, err
	}
	var z, pl, wmax float64
	for _, a := range g.acc {
		z, pl, wmax = z+2*a[0], pl+2*a[1], max(wmax, a[2])
	}
	if z == 0 {
		z = 1
	}
	if 1/wmax/z >= 1e-12 {
		return g.pLogP + pl + g.pSum*math.Log(z), nil
	}
	err = g.eachTile(ctx, func(lo, hi int) [3]float64 {
		kl := 0.0
		for i := lo; i < hi; i++ {
			for j, pij := range g.p[i*n+i+1 : (i+1)*n] {
				q := max(1/(1+y.SquaredDist(i, i+1+j))/z, 1e-12)
				kl += pij * math.Log(pij/q)
			}
		}
		return [3]float64{kl}
	})
	if err != nil {
		return 0, err
	}
	kl := 0.0
	for _, a := range g.acc {
		kl += 2 * a[0]
	}
	return kl, nil
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
