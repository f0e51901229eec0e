package stat

import (
	"errors"
	"sort"
)

// Trustworthiness and Continuity (Venna & Kaski 2001) quantify how well a
// low-dimensional embedding preserves neighborhood structure — the
// quality measures cmd/vapbench's E4 uses to compare the S1 reduction
// methods beyond label-based scores.
//
// Trustworthiness penalizes points that are close in the embedding but
// far in the original space (false neighbors); Continuity penalizes
// original neighbors that drift apart in the embedding (missing
// neighbors). Both are in [0, 1], higher is better.

// rankMatrix returns rank[i][j] = the rank of j in i's distance ordering
// (1 = nearest, excluding i itself).
func rankMatrix(n int, dist func(i, j int) float64) [][]int {
	rank := make([][]int, n)
	idx := make([]int, n-1)
	for i := 0; i < n; i++ {
		m := 0
		for j := 0; j < n; j++ {
			if j != i {
				idx[m] = j
				m++
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return dist(i, idx[a]) < dist(i, idx[b])
		})
		rank[i] = make([]int, n)
		for r, j := range idx {
			rank[i][j] = r + 1
		}
	}
	return rank
}

// neighborSets returns, for each point, the set of its k nearest
// neighbors under dist.
func neighborSets(n, k int, dist func(i, j int) float64) [][]int {
	sets := make([][]int, n)
	idx := make([]int, n-1)
	for i := 0; i < n; i++ {
		m := 0
		for j := 0; j < n; j++ {
			if j != i {
				idx[m] = j
				m++
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return dist(i, idx[a]) < dist(i, idx[b])
		})
		sets[i] = append([]int(nil), idx[:k]...)
	}
	return sets
}

// errEmbedK validates shared preconditions.
func errEmbedK(n, k int) error {
	if n < 3 {
		return errors.New("stat: embedding metrics need n >= 3")
	}
	if k < 1 || k > (n-2)/2 {
		return errors.New("stat: k must be in [1, (n-2)/2] for a normalizable score")
	}
	return nil
}

// Trustworthiness measures false neighbors: points in the embedding's
// k-NN of i that are not among i's high-dimensional k-NN, weighted by how
// far down i's true ordering they sit.
func Trustworthiness(n, k int, highDist, lowDist func(i, j int) float64) (float64, error) {
	if err := errEmbedK(n, k); err != nil {
		return 0, err
	}
	highRank := rankMatrix(n, highDist)
	lowNN := neighborSets(n, k, lowDist)
	penalty := 0.0
	for i := 0; i < n; i++ {
		for _, j := range lowNN[i] {
			if r := highRank[i][j]; r > k {
				penalty += float64(r - k)
			}
		}
	}
	norm := 2.0 / (float64(n) * float64(k) * float64(2*n-3*k-1))
	return 1 - norm*penalty, nil
}

// Continuity measures missing neighbors: i's high-dimensional k-NN that
// are not among its embedding k-NN, weighted by embedding rank.
func Continuity(n, k int, highDist, lowDist func(i, j int) float64) (float64, error) {
	// Continuity is trustworthiness with the roles of the two spaces
	// swapped.
	return Trustworthiness(n, k, lowDist, highDist)
}
