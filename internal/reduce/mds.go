package reduce

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"vap/internal/mat"
)

// ClassicalMDS embeds the distance matrix d into 2-D by Torgerson's method:
// double-center the squared distances into a Gram matrix B and project onto
// the eigenvectors of B's two largest eigenvalues by value (mat.TopEigen),
// scaled by sqrt(eigenvalue). B of a non-Euclidean distance such as Pearson
// is indefinite; a negative value is an axis with no Euclidean extent and
// embeds as 0.
func ClassicalMDS(d [][]float64) (Embedding, error) {
	n := len(d)
	if n < 2 {
		return nil, fmt.Errorf("%w: MDS needs at least 2 points, got %d", ErrInput, n)
	}
	d2 := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		if len(d[i]) != n {
			return nil, fmt.Errorf("%w: distance matrix row %d has %d cols, want %d", ErrInput, i, len(d[i]), n)
		}
		for j := 0; j < n; j++ {
			d2.Set(i, j, d[i][j]*d[i][j])
		}
	}
	b, err := mat.DoubleCenter(d2)
	if err != nil {
		return nil, err
	}
	vals, vecs, err := mat.TopEigen(b, 2, 1000, 1e-10)
	if err != nil {
		return nil, err
	}
	out := make(Embedding, n)
	for k := 0; k < 2; k++ {
		s := math.Sqrt(max(vals[k], 0))
		for i := 0; i < n; i++ {
			out[i][k] = s * vecs.At(i, k)
		}
	}
	return out, nil
}

const (
	smacofEps        = 1e-6 // relative stress improvement under which SMACOF stops
	smacofIterations = 300  // Guttman transforms at most
)

// SMACOFConfig tunes the stress-majorization MDS solver.
type SMACOFConfig struct {
	Seed int64
}

// SMACOFResult carries the embedding and the final normalized stress.
type SMACOFResult struct {
	Embedding  Embedding
	Stress     float64 // raw stress sum (d_ij - delta_ij)^2
	Iterations int
}

// SMACOF minimizes metric MDS stress by iterative majorization (Guttman
// transform), starting from a random layout (or the classical MDS solution
// when the input is small enough for it to be cheap).
func SMACOF(ctx context.Context, d [][]float64, cfg SMACOFConfig) (*SMACOFResult, error) {
	n := len(d)
	if n < 2 {
		return nil, fmt.Errorf("%w: SMACOF needs at least 2 points, got %d", ErrInput, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	x := make(Embedding, n)
	for i := range x {
		x[i][0] = rng.Float64()
		x[i][1] = rng.Float64()
	}
	prevStress := stress(d, x)
	res := &SMACOFResult{}
	nf := float64(n)
	xNew := make(Embedding, n)
	for iter := 1; iter <= smacofIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Guttman transform with unit weights: X' = (1/n) B(X) X where
		// B(X)_ij = -delta_ij / d_ij(X) off-diagonal.
		for i := range xNew {
			xNew[i] = [2]float64{}
		}
		for i := 0; i < n; i++ {
			var bii float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				dij := x.Dist(i, j)
				var bij float64
				if dij > 1e-12 {
					bij = -d[i][j] / dij
				}
				bii -= bij
				xNew[i][0] += bij * x[j][0]
				xNew[i][1] += bij * x[j][1]
			}
			xNew[i][0] += bii * x[i][0]
			xNew[i][1] += bii * x[i][1]
			xNew[i][0] /= nf
			xNew[i][1] /= nf
		}
		copy(x, xNew)
		s := stress(d, x)
		res.Iterations = iter
		if prevStress > 0 && (prevStress-s)/prevStress < smacofEps {
			prevStress = s
			break
		}
		prevStress = s
	}
	res.Stress = prevStress
	res.Embedding = x
	return res, nil
}

func stress(d [][]float64, x Embedding) float64 {
	s := 0.0
	n := len(x)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			diff := x.Dist(i, j) - d[i][j]
			s += diff * diff
		}
	}
	return s
}

// PCA projects the raw rows (not a distance matrix) onto their top-2
// principal components — the cheap linear baseline for the E4 comparison.
// The components are mat.TopEigen's two leading eigenvectors of the
// covariance matrix; with one feature column the second axis is 0. The
// covariance pass stops with ctx's error between input rows.
func PCA(ctx context.Context, rows [][]float64) (Embedding, error) {
	n := len(rows)
	if n < 2 {
		return nil, fmt.Errorf("%w: PCA needs at least 2 rows, got %d", ErrInput, n)
	}
	dim := len(rows[0])
	for i, r := range rows {
		if len(r) != dim || dim == 0 {
			return nil, fmt.Errorf("%w: PCA row %d has %d cols, want %d nonzero", ErrInput, i, len(r), dim)
		}
	}
	// Column means.
	mean := make([]float64, dim)
	for _, r := range rows {
		for j, v := range r {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	// Covariance matrix (dim x dim).
	cov := mat.NewDense(dim, dim)
	for _, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for a := 0; a < dim; a++ {
			da := r[a] - mean[a]
			for b := a; b < dim; b++ {
				cov.Set(a, b, cov.At(a, b)+da*(r[b]-mean[b]))
			}
		}
	}
	for a := 0; a < dim; a++ {
		for b := a; b < dim; b++ {
			v := cov.At(a, b) / float64(n-1)
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	_, vecs, err := mat.TopEigen(cov, 2, 1000, 1e-10)
	if err != nil {
		return nil, err
	}
	out := make(Embedding, n)
	for i, r := range rows {
		for k := 0; k < 2; k++ {
			s := 0.0
			for j := 0; j < dim; j++ {
				s += (r[j] - mean[j]) * vecs.At(j, k)
			}
			out[i][k] = s
		}
	}
	return out, nil
}

// Method names a reduction algorithm for API selection.
type Method string

// Methods exposed by the API (S1 step 3 compares t-SNE and MDS).
const (
	MethodTSNE   Method = "tsne"
	MethodMDS    Method = "mds"
	MethodSMACOF Method = "smacof"
	MethodPCA    Method = "pca"
)

// Reduce runs the named method on rows with the given metric and default
// configs; the one-call convenience the API layer and examples use. The
// distance matrix and t-SNE fan out across up to workers goroutines
// (workers <= 0 selects runtime.GOMAXPROCS(0)).
func Reduce(ctx context.Context, rows [][]float64, method Method, metric Metric, seed int64, workers int) (Embedding, error) {
	switch method {
	case MethodPCA:
		return PCA(ctx, rows)
	case MethodTSNE, MethodMDS, MethodSMACOF:
		d, err := DistanceMatrixCtx(ctx, rows, metric, workers)
		if err != nil {
			return nil, err
		}
		switch method {
		case MethodTSNE:
			r, err := TSNE(ctx, d, TSNEConfig{Seed: seed, Workers: workers})
			if err != nil {
				return nil, err
			}
			return r.Embedding, nil
		case MethodMDS:
			return ClassicalMDS(d)
		default:
			r, err := SMACOF(ctx, d, SMACOFConfig{Seed: seed})
			if err != nil {
				return nil, err
			}
			return r.Embedding, nil
		}
	default:
		return nil, fmt.Errorf("%w: unknown method %q", ErrInput, method)
	}
}
