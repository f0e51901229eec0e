// Package cluster implements the k-means baseline VAP's demo scenario S1
// (step 4) runs against visual pattern discovery: k-means++ seeding, Lloyd
// iterations, multiple restarts, and an elbow/inertia report.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrInput flags invalid clustering input.
var ErrInput = errors.New("cluster: invalid input")

const (
	tolerance = 1e-6 // centroid movement under which Lloyd iterations stop
	maxIter   = 100  // Lloyd iterations per restart
	restarts  = 10   // k-means++ restarts; the best inertia wins
)

// KMeansConfig tunes the solver.
type KMeansConfig struct {
	K          int
	Seed       int64
	NormalizeZ bool // z-normalize each row first (shape, not magnitude)
}

// KMeansResult holds the best clustering over all restarts.
type KMeansResult struct {
	Labels    []int
	Centroids [][]float64
	Inertia   float64 // sum of squared distances to assigned centroids
	Iters     int     // iterations of the winning restart
}

// KMeans clusters rows into cfg.K groups.
func KMeans(rows [][]float64, cfg KMeansConfig) (*KMeansResult, error) {
	n := len(rows)
	if n == 0 {
		return nil, ErrInput
	}
	dim := len(rows[0])
	for i, r := range rows {
		if len(r) != dim || dim == 0 {
			return nil, fmt.Errorf("cluster: row %d has %d cols, want %d nonzero", i, len(r), dim)
		}
	}
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1, %d]", cfg.K, n)
	}
	data := rows
	if cfg.NormalizeZ {
		data = make([][]float64, n)
		for i, r := range rows {
			data[i] = znorm(r)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var best *KMeansResult
	for r := 0; r < restarts; r++ {
		res := lloyd(data, cfg, rng)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func znorm(r []float64) []float64 {
	mu := 0.0
	for _, v := range r {
		mu += v
	}
	mu /= float64(len(r))
	sd := 0.0
	for _, v := range r {
		d := v - mu
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(r)))
	out := make([]float64, len(r))
	if sd == 0 {
		return out
	}
	for i, v := range r {
		out[i] = (v - mu) / sd
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// seedPlusPlus picks initial centroids with k-means++ (Arthur &
// Vassilvitskii 2007): each next centroid is sampled proportionally to its
// squared distance from the nearest chosen centroid.
func seedPlusPlus(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(data)
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, clone(data[first]))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = sqDist(data[i], centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, v := range d2 {
			total += v
		}
		var idx int
		if total <= 0 {
			idx = rng.Intn(n) // all points coincide with centroids
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= target {
					idx = i
					break
				}
			}
		}
		c := clone(data[idx])
		centroids = append(centroids, c)
		for i := range d2 {
			if d := sqDist(data[i], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

func clone(r []float64) []float64 {
	out := make([]float64, len(r))
	copy(out, r)
	return out
}

func lloyd(data [][]float64, cfg KMeansConfig, rng *rand.Rand) *KMeansResult {
	n := len(data)
	dim := len(data[0])
	centroids := seedPlusPlus(data, cfg.K, rng)
	labels := make([]int, n)
	counts := make([]int, cfg.K)
	sums := make([][]float64, cfg.K)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	var inertia float64
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		// Assignment.
		inertia = 0
		for i, r := range data {
			bestK, bestD := 0, math.Inf(1)
			for k, c := range centroids {
				if d := sqDist(r, c); d < bestD {
					bestK, bestD = k, d
				}
			}
			labels[i] = bestK
			inertia += bestD
		}
		// Update.
		for k := range sums {
			counts[k] = 0
			for j := range sums[k] {
				sums[k][j] = 0
			}
		}
		for i, r := range data {
			k := labels[i]
			counts[k]++
			for j, v := range r {
				sums[k][j] += v
			}
		}
		moved := 0.0
		for k := range centroids {
			if counts[k] == 0 {
				// Re-seed empty cluster at the point farthest from its
				// centroid to avoid dead clusters.
				far, farD := 0, -1.0
				for i, r := range data {
					if d := sqDist(r, centroids[labels[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[k], data[far])
				moved += 1
				continue
			}
			for j := range centroids[k] {
				nv := sums[k][j] / float64(counts[k])
				d := nv - centroids[k][j]
				moved += d * d
				centroids[k][j] = nv
			}
		}
		if math.Sqrt(moved) < tolerance {
			break
		}
	}
	// Final assignment pass so labels match the final centroids.
	inertia = 0
	for i, r := range data {
		bestK, bestD := 0, math.Inf(1)
		for k, c := range centroids {
			if d := sqDist(r, c); d < bestD {
				bestK, bestD = k, d
			}
		}
		labels[i] = bestK
		inertia += bestD
	}
	return &KMeansResult{
		Labels:    append([]int(nil), labels...),
		Centroids: centroids,
		Inertia:   inertia,
		Iters:     iters,
	}
}
