package reduce

// The t-SNE this package shipped before the flat, fused, row-parallel
// rewrite, kept verbatim (names prefixed ref) as the oracle the production
// kernels are tested against: three full n^2 passes over [][]float64 per
// iteration, a materialized q, and a serial perplexity search with one exp
// and one log per element per bisection step.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// refTSNE computes an exact t-SNE embedding of the pairwise distance matrix d.
// P is built with Gaussian kernels whose bandwidths are binary-searched to
// match the configured perplexity; Q is the Student-t kernel of Eq. 2. The
// context allows cancellation of long runs (the API server uses this).
func refTSNE(ctx context.Context, d [][]float64, cfg TSNEConfig) (*TSNEResult, error) {
	n := len(d)
	if n < 2 {
		return nil, fmt.Errorf("reduce: t-SNE needs at least 2 points, got %d", n)
	}
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("reduce: distance matrix row %d has %d cols, want %d", i, len(d[i]), n)
		}
	}
	cfg.defaults()

	p := refConditionalToJoint(refPerplexitySearch(d, perplexityFor(n)))
	// Early exaggeration.
	for i := range p {
		for j := range p[i] {
			p[i][j] *= exaggeration
		}
	}

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
	grad := make([][2]float64, n)
	q := make([][]float64, n)
	num := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		num[i] = make([]float64, n)
	}

	res := &TSNEResult{}
	exaggerated := true
	for iter := 1; iter <= cfg.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if exaggerated && iter > exaggerEnd {
			for i := range p {
				for j := range p[i] {
					p[i][j] /= exaggeration
				}
			}
			exaggerated = false
		}
		refComputeQ(y, q, num)
		refGradKL(p, q, num, y, grad)

		gnorm := 0.0
		mom := momentum
		if iter >= momSwitch {
			mom = finalMom
		}
		for i := range y {
			for k := 0; k < 2; k++ {
				g := grad[i][k]
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
		if math.Sqrt(gnorm) < minGradNorm && !exaggerated {
			break
		}
	}
	refComputeQ(y, q, num)
	res.KL = refKLDivergence(p, q, exaggerated, exaggeration)
	res.Embedding = y
	return res, nil
}

// refPerplexitySearch finds per-point Gaussian bandwidths sigma_i such that the
// Shannon entropy of the conditional distribution p_{j|i} equals
// log2(perplexity), returning the conditional matrix.
func refPerplexitySearch(d [][]float64, perplexity float64) [][]float64 {
	n := len(d)
	target := math.Log(perplexity)
	p := make([][]float64, n)
	for i := 0; i < n; i++ {
		p[i] = make([]float64, n)
		betaMin, betaMax := math.Inf(-1), math.Inf(1)
		beta := 1.0 // beta = 1 / (2 sigma^2)
		// Bisected to the root, not to a loose tolerance, so the oracle
		// pins the spec rather than one search's path to it.
		const tol = 1e-12
		for tries := 0; tries < 400; tries++ {
			h := refCondRow(d[i], i, beta, p[i])
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
	}
	return p
}

// refCondRow fills row with p_{j|i} for the given precision beta and returns
// the entropy H(P_i) in nats.
func refCondRow(di []float64, i int, beta float64, row []float64) float64 {
	sum := 0.0
	for j := range di {
		if j == i {
			row[j] = 0
			continue
		}
		v := math.Exp(-di[j] * di[j] * beta)
		row[j] = v
		sum += v
	}
	if sum == 0 {
		// Degenerate: all distances huge; fall back to uniform.
		u := 1.0 / float64(len(di)-1)
		for j := range row {
			if j != i {
				row[j] = u
			}
		}
		return math.Log(float64(len(di) - 1))
	}
	h := 0.0
	for j := range row {
		if j == i {
			continue
		}
		row[j] /= sum
		if row[j] > 1e-300 {
			h -= row[j] * math.Log(row[j])
		}
	}
	return h
}

// refConditionalToJoint symmetrizes: P_ij = (p_{j|i} + p_{i|j}) / 2n, floored
// to keep the KL well defined.
func refConditionalToJoint(cond [][]float64) [][]float64 {
	n := len(cond)
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
	}
	inv := 1 / (2 * float64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := (cond[i][j] + cond[j][i]) * inv
			if v < 1e-12 {
				v = 1e-12
			}
			p[i][j] = v
		}
	}
	return p
}

// refComputeQ fills q with the Student-t similarities of Eq. 2 and num with
// the unnormalized kernels (1 + ||y_i - y_j||^2)^-1.
func refComputeQ(y Embedding, q, num [][]float64) {
	n := len(y)
	sum := 0.0
	for i := 0; i < n; i++ {
		num[i][i] = 0
		for j := i + 1; j < n; j++ {
			k := 1 / (1 + y.SquaredDist(i, j))
			num[i][j] = k
			num[j][i] = k
			sum += 2 * k
		}
	}
	if sum == 0 {
		sum = 1
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := num[i][j] / sum
			if v < 1e-12 {
				v = 1e-12
			}
			q[i][j] = v
		}
		q[i][i] = 1e-12
	}
}

// refGradKL computes dKL/dy into grad: 4 * sum_j (p_ij - q_ij) * num_ij * (y_i - y_j).
func refGradKL(p, q, num [][]float64, y Embedding, grad [][2]float64) {
	n := len(y)
	for i := 0; i < n; i++ {
		var gx, gy float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			mult := (p[i][j] - q[i][j]) * num[i][j]
			gx += mult * (y[i][0] - y[j][0])
			gy += mult * (y[i][1] - y[j][1])
		}
		grad[i][0] = 4 * gx
		grad[i][1] = 4 * gy
	}
}

// refKLDivergence evaluates Eq. 1. When p is still exaggerated, it is
// de-exaggerated on the fly, so a run that stops early reports its KL
// against the true P.
func refKLDivergence(p, q [][]float64, exaggerated bool, factor float64) float64 {
	kl := 0.0
	for i := range p {
		for j := range p[i] {
			if i == j {
				continue
			}
			pij := p[i][j]
			if exaggerated {
				pij /= factor
			}
			if pij > 1e-300 {
				kl += pij * math.Log(pij/q[i][j])
			}
		}
	}
	return kl
}
