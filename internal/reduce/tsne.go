package reduce

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"vap/internal/exec"
)

// The optimizer's schedule and step (matching van der Maaten & Hinton
// 2008).
const (
	targetPerplexity = 30   // clamped for small n by perplexityFor
	learnRate        = 200  // gradient step
	momentum         = 0.5  // early momentum
	finalMom         = 0.8  // momentum from momSwitch on
	momSwitch        = 250  // iteration of the momentum switch
	exaggeration     = 12   // early exaggeration factor
	exaggerEnd       = 100  // last iteration of early exaggeration
	minGradNorm      = 1e-7 // past exaggeration, a smaller gradient norm stops
)

// TSNEConfig tunes the exact t-SNE optimizer. Zero values take the
// defaults noted per field.
type TSNEConfig struct {
	Iterations int   // default 500
	Seed       int64 // RNG seed for the initial layout
	// Workers fans the perplexity search out across row bands and each
	// iteration's pass over the pairs across fixed tiles of rows: 0
	// selects runtime.GOMAXPROCS(0). The result is bit-identical for
	// every worker count.
	Workers int
}

func (c *TSNEConfig) defaults() {
	if c.Iterations <= 0 {
		c.Iterations = 500
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// perplexityFor is the perplexity t-SNE matches over n points:
// targetPerplexity, clamped to (n-1)/3 where that is at least 1.
func perplexityFor(n int) float64 {
	if maxPerp := float64(n-1) / 3; maxPerp >= 1 && targetPerplexity > maxPerp {
		return maxPerp
	}
	return targetPerplexity
}

// TSNEResult carries the embedding and optimization diagnostics.
type TSNEResult struct {
	Embedding  Embedding
	KL         float64 // final KL(P || Q), Eq. 1
	Iterations int
}

// TSNE computes an exact t-SNE embedding of the pairwise distance matrix d.
// P is built with Gaussian kernels whose bandwidths are searched to match
// the configured perplexity; Q is the Student-t kernel of Eq. 2. The
// context allows cancellation of long runs (the API server uses this).
//
// P is one flat row-major array and Q is never stored: each iteration makes
// a single pass that visits each unordered pair once, in tiles of rows
// that the workers share (see gradient). The tiles do not depend on
// cfg.Workers, each is computed by one goroutine into its own memory, and
// the reductions across tiles run serially in tile order, so neither does
// the embedding. One exec.Team works every pass of the run.
func TSNE(ctx context.Context, d [][]float64, cfg TSNEConfig) (*TSNEResult, error) {
	return tsne(ctx, d, cfg, hasAVX2)
}

// tsne is TSNE with the pair pass's kernel chosen by avx2.
func tsne(ctx context.Context, d [][]float64, cfg TSNEConfig, avx2 bool) (*TSNEResult, error) {
	n := len(d)
	if n < 2 {
		return nil, fmt.Errorf("%w: t-SNE needs at least 2 points, got %d", ErrInput, n)
	}
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("%w: distance matrix row %d has %d cols, want %d", ErrInput, i, len(d[i]), n)
		}
	}
	cfg.defaults()

	p, _, err := perplexitySearch(ctx, d, perplexityFor(n), cfg.Workers)
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
	// No more workers than tiles: a helper with no tile would only poll.
	team := exec.NewTeam(min(cfg.Workers, (n+tileRows-1)/tileRows))
	defer team.Close()
	grad := newGradient(p, n, team, avx2)

	res := &TSNEResult{}
	for iter := 1; iter <= cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Early exaggeration scales P inside the gradient only.
		exagger := 1.0
		if iter <= exaggerEnd {
			exagger = exaggeration
		}
		if err := grad.compute(ctx, y, exagger); err != nil {
			return nil, err
		}

		gnorm := 0.0
		mom := momentum
		if iter >= momSwitch {
			mom = finalMom
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
				vel[i][k] = mom*vel[i][k] - learnRate*gains[i][k]*g
				y[i][k] += vel[i][k]
			}
		}
		centerEmbedding(y)
		res.Iterations = iter
		if math.Sqrt(gnorm) < minGradNorm && exagger == 1 {
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
// and row-major, and the number of kernel passes the search took. Rows are
// independent and searched in parallel bands, so both are the same for
// every worker count.
func perplexitySearch(ctx context.Context, d [][]float64, perplexity float64, workers int) ([]float64, int, error) {
	n := len(d)
	p := make([]float64, n*n)
	var steps atomic.Int64
	err := exec.ForEachChunk(ctx, n, workers, func(lo, hi int) error {
		d2, e := make([]float64, n-1), make([]float64, n-1)
		chunk := 0
		for i := lo; i < hi; i++ {
			chunk += searchRow(d[i], i, perplexity, d2, e, p[i*n:(i+1)*n])
		}
		steps.Add(int64(chunk))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return p, int(steps.Load()), nil
}

// searchRow fills out with p_{j|i} for the distances di of point i and
// returns the number of kernel passes it took; d and e are scratch of
// length n-1.
//
// The kernels are shifted by the nearest squared distance d2min,
// e_j = exp(-beta d'_j) with d'_j = d2_j - d2min, which leaves p_j = e_j/S
// and H = ln S + beta sum(d'_j e_j)/S unchanged but makes the nearest
// kernel exactly 1, so S >= 1 cannot underflow however narrow the kernel.
// The root of f(u) = H - ln(perplexity) in u = ln beta is found by Halley
// steps, with df/du = -beta^2 Var and d2f/du2 = -2 beta^2 Var + beta^3 mu3
// (the variance and third central moment of d' under p), to |f| < 1e-12.
// The search starts at beta = 1/d'_(k), the k-th neighbour past the
// nearest for k = floor(perplexity), found by selection. A row whose
// perplexity exceeds a group of close neighbours thus starts past the
// group, not inside it, and need not cross the plateau H has between the
// two scales, which Newton and Halley overshoot. Every evaluation tightens
// a bracket on beta, and a step that would leave it, or scale beta by
// more than e^2, doubles beta, halves it or takes the bracket's geometric
// midpoint instead.
func searchRow(di []float64, i int, perplexity float64, d, e, out []float64) int {
	d = append(append(d[:0], di[:i]...), di[i+1:]...)
	d2min := math.MaxFloat64
	for j, v := range d {
		// Capped so an overflowing square is a kernel of exactly 0 and
		// its moment terms 0*huge, not Inf*0.
		d[j] = math.Min(v*v, math.MaxFloat64)
		d2min = math.Min(d2min, d[j])
	}
	if d2min == math.MaxFloat64 {
		// Every neighbour is out of reach: no width of the kernel sees
		// one, and the row is uniform.
		for j := range out {
			out[j] = 1 / float64(len(d))
		}
		out[i] = 0
		return 0
	}
	for j := range d {
		d[j] -= d2min
	}
	// Start where the k-th neighbour past the nearest weighs 1/e, or at
	// 1 when that neighbour is tied with the nearest or out of reach. The
	// selection reorders e, which the first pass then overwrites.
	beta := 1.0
	if k := int(perplexity); k < len(d) {
		if b := 1 / nthSmallest(append(e[:0], d...), k); b > 1e-300 && b < 1e300 {
			beta = b
		}
	}
	target := math.Log(perplexity)
	lo, hi := 0.0, math.Inf(1)
	var sum float64
	steps := 0
	for steps < 64 {
		var m1, m2, m3 float64
		sum, m1, m2, m3 = kernelMoments(d, beta, e)
		steps++
		mean := m1 / sum
		f := math.Log(sum) + beta*mean - target
		if math.Abs(f) < 1e-12 {
			break
		}
		vr := m2/sum - mean*mean
		if f > 0 {
			if vr == 0 {
				// All weight sits on the nearest distance already; a
				// narrower kernel cannot lower the entropy further.
				break
			}
			lo = beta
		} else {
			hi = beta
		}
		mu3 := m3/sum - 3*mean*(m2/sum) + 2*mean*mean*mean
		fp := -beta * beta * vr
		fpp := 2*fp + beta*beta*beta*mu3
		du := -f / fp // Newton
		if c := f * fpp / (2 * fp * fp); c <= 0.5 {
			du /= 1 - c // Halley, where it at most doubles Newton's step
		}
		next := beta * math.Exp(du)
		if !(next > lo && next < hi) || math.Abs(du) > 2 {
			switch {
			case math.IsInf(hi, 1):
				next = 2 * beta
			case lo == 0:
				next = beta / 2
			default:
				next = math.Sqrt(lo) * math.Sqrt(hi)
			}
		}
		beta = next
	}
	copy(out[:i], e[:i])
	out[i] = 0
	copy(out[i+1:], e[i:])
	for j := range out {
		out[j] /= sum
	}
	return steps
}

// kernelMoments writes e_j = exp(-beta d_j) into e and returns S = sum e_j
// and the raw moments sum d_j e_j, sum d_j^2 e_j and sum d_j^3 e_j. Each
// power is taken as (d_j e_j) d_j, so a capped distance, whose kernel is
// 0, contributes 0 to every moment.
func kernelMoments(d []float64, beta float64, e []float64) (sum, m1, m2, m3 float64) {
	e = e[:len(d)]
	for j, v := range d {
		x := math.Exp(-beta * v)
		e[j] = x
		sum += x
		x *= v
		m1 += x
		x *= v
		m2 += x
		m3 += x * v
	}
	return sum, m1, m2, m3
}

// nthSmallest returns the (k+1)-th smallest value of a, reordering a.
func nthSmallest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		a[mid], a[hi] = a[hi], a[mid]
		pivot, p := a[hi], lo
		for j := lo; j < hi; j++ {
			if a[j] < pivot {
				a[p], a[j] = a[j], a[p]
				p++
			}
		}
		a[p], a[hi] = a[hi], a[p]
		switch {
		case p == k:
			return a[k]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return a[k]
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
// its rows. pairPass keeps row i's sums in four lanes, reduced when the
// row ends, and subtracts row j's share into the tile's own partial
// slices, so no two tiles write the same memory. A serial reduction then
// adds, for each row, its own sums and every tile's partial in tile
// order. No n x n kernel or Q matrix is stored. (The 1e-12 floor under
// q_ij exists for the KL's logarithm; in the gradient it could move a term
// by at most 1e-12 * k_ij * |y_i - y_j| <= 5e-13 and is left out.)
type gradient struct {
	p    []float64
	n    int
	team *exec.Team

	// The KL terms that do not depend on the layout:
	// sum_{i != j} p_ij ln p_ij and sum_{i != j} p_ij.
	pLogP, pSum float64

	dy [][2]float64 // dKL/dy of the last compute
	z  float64      // Z of the last compute

	avx2   bool         // run the pair pass's AVX2 kernel
	xs, ys []float64    // the layout's coordinates, copied once per compute
	own    rowSums      // row i's attractive x, y and repulsive x, y sums over j > i
	part   []rowSums    // per tile: row j's share of the tile's pairs, at j - the tile's first row
	acc    [][3]float64 // per tile: the pass's scalar sums
}

func newGradient(p []float64, n int, team *exec.Team, avx2 bool) *gradient {
	g := &gradient{
		p: p, n: n, team: team, avx2: avx2,
		dy:  make([][2]float64, n),
		xs:  make([]float64, n),
		ys:  make([]float64, n),
		own: newRowSums(n),
	}
	for lo := 0; lo < n; lo += tileRows {
		g.part = append(g.part, newRowSums(n-lo))
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
// in g.acc. The team hands the tiles out in index order, the largest
// first; the callers add g.acc up in tile order, so no sum depends on the
// worker count.
func (g *gradient) eachTile(ctx context.Context, f func(lo, hi int) [3]float64) error {
	return g.team.Run(ctx, len(g.acc), func(t int) error {
		lo := t * tileRows
		g.acc[t] = f(lo, min(lo+tileRows, g.n))
		return nil
	})
}

// compute fills g.dy and g.z for the layout y, with P scaled by exagger.
func (g *gradient) compute(ctx context.Context, y Embedding, exagger float64) error {
	n := g.n
	for i, pt := range y {
		g.xs[i], g.ys[i] = pt[0], pt[1]
	}
	err := g.eachTile(ctx, func(lo, hi int) [3]float64 {
		part := g.part[lo/tileRows]
		part.clear()
		z := 0.0
		for i := lo; i < hi; i++ {
			var s laneSums
			pairPass(g.avx2, g.xs[i], g.ys[i], g.p[i*n+i+1:(i+1)*n], g.xs[i+1:], g.ys[i+1:], part.from(i+1-lo), &s)
			g.own.ax[i], g.own.ay[i], g.own.rx[i], g.own.ry[i] = s.total(0), s.total(1), s.total(2), s.total(3)
			z += s.total(4)
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
		ax, ay, rx, ry := g.own.ax[i], g.own.ay[i], g.own.rx[i], g.own.ry[i]
		for t := 0; t*tileRows < i; t++ {
			part, j := g.part[t], i-t*tileRows
			ax, ay, rx, ry = ax+part.ax[j], ay+part.ay[j], rx+part.rx[j], ry+part.ry[j]
		}
		g.dy[i][0] = 4 * (exagger*ax - rx/z)
		g.dy[i][1] = 4 * (exagger*ay - ry/z)
	}
	return nil
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
