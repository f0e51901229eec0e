package cluster

import (
	"fmt"
	"math"
)

// Linkage selects how inter-cluster distance is computed during
// agglomerative clustering.
type Linkage string

// Supported linkages.
const (
	// LinkageSingle merges by minimum pairwise distance (chains).
	LinkageSingle Linkage = "single"
	// LinkageComplete merges by maximum pairwise distance (compact).
	LinkageComplete Linkage = "complete"
	// LinkageAverage merges by mean pairwise distance (UPGMA).
	LinkageAverage Linkage = "average"
)

// Dendrogram records an agglomerative clustering as a merge sequence.
// Leaves are numbered 0..n-1; internal node i (0-based) created by
// Merges[i] has id n+i.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Merge is one agglomeration step.
type Merge struct {
	A, B     int     // node ids merged (leaf < N, internal >= N)
	Distance float64 // linkage distance at which they merged
	Size     int     // size of the resulting cluster
}

// Agglomerative builds a full dendrogram from a symmetric distance matrix
// using the Lance-Williams update for the chosen linkage. It is O(n^3)
// worst case with O(n^2) memory — fine for VAP's population sizes
// (hundreds of customers).
func Agglomerative(dist [][]float64, linkage Linkage) (*Dendrogram, error) {
	n := len(dist)
	if n == 0 {
		return nil, ErrInput
	}
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("cluster: distance row %d has %d cols, want %d", i, len(dist[i]), n)
		}
	}
	switch linkage {
	case LinkageSingle, LinkageComplete, LinkageAverage:
	default:
		return nil, fmt.Errorf("cluster: unknown linkage %q", linkage)
	}
	// Working copy; d[i][j] holds the current inter-cluster distance.
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	active := make([]bool, n)
	size := make([]int, n)
	nodeID := make([]int, n) // current dendrogram id of slot i
	for i := range active {
		active[i] = true
		size[i] = 1
		nodeID[i] = i
	}
	dg := &Dendrogram{N: n}
	for step := 0; step < n-1; step++ {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if d[i][j] < best {
					bi, bj, best = i, j, d[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		// Merge bj into bi; bi becomes the new cluster slot.
		newSize := size[bi] + size[bj]
		dg.Merges = append(dg.Merges, Merge{
			A: nodeID[bi], B: nodeID[bj], Distance: best, Size: newSize,
		})
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			var nd float64
			switch linkage {
			case LinkageSingle:
				nd = math.Min(d[bi][k], d[bj][k])
			case LinkageComplete:
				nd = math.Max(d[bi][k], d[bj][k])
			case LinkageAverage:
				nd = (float64(size[bi])*d[bi][k] + float64(size[bj])*d[bj][k]) / float64(newSize)
			}
			d[bi][k] = nd
			d[k][bi] = nd
		}
		size[bi] = newSize
		active[bj] = false
		nodeID[bi] = n + step
	}
	return dg, nil
}

// Cut flattens the dendrogram into exactly k clusters by undoing the last
// k-1 merges, returning a label per leaf (labels are 0..k-1, assigned in
// first-appearance order).
func (d *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > d.N {
		return nil, fmt.Errorf("cluster: cut k=%d out of range [1, %d]", k, d.N)
	}
	// Union-find over the first N-k merges.
	parent := make([]int, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	applied := d.N - k
	if applied > len(d.Merges) {
		applied = len(d.Merges)
	}
	for i := 0; i < applied; i++ {
		m := d.Merges[i]
		node := d.N + i
		parent[find(m.A)] = node
		parent[find(m.B)] = node
	}
	labels := make([]int, d.N)
	next := 0
	name := map[int]int{}
	for leaf := 0; leaf < d.N; leaf++ {
		root := find(leaf)
		id, ok := name[root]
		if !ok {
			id = next
			next++
			name[root] = id
		}
		labels[leaf] = id
	}
	return labels, nil
}
