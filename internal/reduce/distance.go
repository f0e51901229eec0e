// Package reduce implements the dimension-reduction models of VAP's typical
// pattern discovery (paper §2.1): exact t-SNE minimizing the KL divergence
// of Eq. 1 with the Student-t low-dimensional kernel of Eq. 2, classical
// (Torgerson) MDS, SMACOF stress-majorization MDS, and a PCA baseline.
// The paper's distance metric is the Pearson correlation distance, which
// "better reflects the correlation of the trend between two time series";
// Euclidean distance is available for cmd/vapbench's E3a ablation.
package reduce

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"vap/internal/exec"
	"vap/internal/stat"
)

// Metric selects the dissimilarity between two high-dimensional series.
type Metric string

// Supported metrics.
const (
	// MetricPearson is 1 - r (the paper's choice).
	MetricPearson Metric = "pearson"
	// MetricEuclidean is the L2 distance.
	MetricEuclidean Metric = "euclidean"
)

// ErrInput flags reduction input the caller got wrong — an unknown method
// or metric, fewer than two points, ragged rows — as opposed to a fault
// while reducing; every such error wraps it.
var ErrInput = errors.New("reduce: invalid input")

// DistanceMatrixCtx computes the full symmetric pairwise distance matrix of
// rows under the metric. Rows must be equal-length and non-empty. The upper
// triangle is row-chunked across up to workers goroutines (workers <= 0
// selects runtime.GOMAXPROCS(0)). Rows are handed out dynamically, so the
// triangular imbalance (row i has n-i-1 pairs) spreads evenly. Cancellation
// of ctx aborts the computation.
func DistanceMatrixCtx(ctx context.Context, rows [][]float64, m Metric, workers int) ([][]float64, error) {
	n := len(rows)
	if n == 0 {
		return nil, ErrInput
	}
	width := len(rows[0])
	for i, r := range rows {
		if len(r) != width || width == 0 {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d nonzero", ErrInput, i, len(r), width)
		}
	}
	var distFn func(i, j int) float64
	switch m {
	case MetricPearson:
		distFn = pearsonDistances(rows)
	case MetricEuclidean:
		distFn = func(i, j int) float64 {
			v, _ := stat.Euclidean(rows[i], rows[j]) // lengths checked above
			return v
		}
	default:
		return nil, fmt.Errorf("%w: unknown metric %q", ErrInput, m)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	// Each worker owns whole rows of the upper triangle; d[j][i] mirrors
	// touch only column i of later rows, which no other row-i task writes,
	// so the matrix needs no locking.
	err := exec.ForEach(ctx, n, workers, func(i int) error {
		for j := i + 1; j < n; j++ {
			v := distFn(i, j)
			if math.IsNaN(v) || v < 0 {
				v = 0
			}
			d[i][j] = v
			d[j][i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// pearsonDistances standardizes every row once — mean 0, unit norm — so the
// Pearson distance 1 - r of a pair is one dot product, where the textbook
// formula recomputes both means and three sums per pair. A zero-variance
// row correlates with nothing (r = 0).
func pearsonDistances(rows [][]float64) func(i, j int) float64 {
	width := len(rows[0])
	z := make([]float64, len(rows)*width)
	flat := make([]bool, len(rows))
	for i, r := range rows {
		zi := z[i*width : (i+1)*width]
		mean := stat.Mean(r)
		ss := 0.0
		for k, v := range r {
			zi[k] = v - mean
			ss += zi[k] * zi[k]
		}
		if ss == 0 {
			flat[i] = true
			continue
		}
		norm := math.Sqrt(ss)
		for k := range zi {
			zi[k] /= norm
		}
	}
	return func(i, j int) float64 {
		if flat[i] || flat[j] {
			return 1
		}
		// Four lanes: a single accumulator would serialize the loop on
		// the floating-point add latency.
		return 1 - dot(hasAVX2, z[i*width:(i+1)*width], z[j*width:(j+1)*width])
	}
}

// Embedding is a set of 2-D points, one per input row, in input order.
type Embedding [][2]float64

// Bounds returns the min/max corner of the embedding.
func (e Embedding) Bounds() (minX, minY, maxX, maxY float64) {
	if len(e) == 0 {
		return 0, 0, 0, 0
	}
	minX, minY = e[0][0], e[0][1]
	maxX, maxY = minX, minY
	for _, p := range e[1:] {
		if p[0] < minX {
			minX = p[0]
		}
		if p[0] > maxX {
			maxX = p[0]
		}
		if p[1] < minY {
			minY = p[1]
		}
		if p[1] > maxY {
			maxY = p[1]
		}
	}
	return minX, minY, maxX, maxY
}

// Normalize01 rescales the embedding into the unit square in place
// (no-ops on degenerate axes).
func (e Embedding) Normalize01() {
	minX, minY, maxX, maxY := e.Bounds()
	dx := maxX - minX
	dy := maxY - minY
	for i := range e {
		if dx > 0 {
			e[i][0] = (e[i][0] - minX) / dx
		} else {
			e[i][0] = 0.5
		}
		if dy > 0 {
			e[i][1] = (e[i][1] - minY) / dy
		} else {
			e[i][1] = 0.5
		}
	}
}

// SquaredDist returns the squared Euclidean distance between embedding
// points i and j.
func (e Embedding) SquaredDist(i, j int) float64 {
	dx := e[i][0] - e[j][0]
	dy := e[i][1] - e[j][1]
	return dx*dx + dy*dy
}

// Dist returns the Euclidean distance between embedding points i and j.
func (e Embedding) Dist(i, j int) float64 { return math.Sqrt(e.SquaredDist(i, j)) }
