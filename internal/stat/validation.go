package stat

import (
	"errors"
	"math"
)

// ErrLabels is returned when label slices are mismatched or empty.
var ErrLabels = errors.New("stat: label slices must have equal nonzero length")

// Silhouette computes the mean silhouette coefficient of a labelled point
// set given a pairwise distance function. Points in singleton clusters
// contribute 0, following the scikit-learn convention. It returns an error
// if fewer than 2 clusters are present.
func Silhouette(n int, labels []int, dist func(i, j int) float64) (float64, error) {
	if n == 0 || len(labels) != n {
		return 0, ErrLabels
	}
	clusters := map[int][]int{}
	for i, l := range labels {
		clusters[l] = append(clusters[l], i)
	}
	if len(clusters) < 2 {
		return 0, errors.New("stat: silhouette requires at least 2 clusters")
	}
	total := 0.0
	for i := 0; i < n; i++ {
		own := clusters[labels[i]]
		if len(own) == 1 {
			continue // s(i) = 0
		}
		// a(i): mean intra-cluster distance.
		a := 0.0
		for _, j := range own {
			if j != i {
				a += dist(i, j)
			}
		}
		a /= float64(len(own) - 1)
		// b(i): min over other clusters of mean distance.
		b := math.Inf(1)
		for l, members := range clusters {
			if l == labels[i] {
				continue
			}
			s := 0.0
			for _, j := range members {
				s += dist(i, j)
			}
			s /= float64(len(members))
			if s < b {
				b = s
			}
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n), nil
}

// contingency builds the contingency table between two labelings.
func contingency(a, b []int) (map[[2]int]int, map[int]int, map[int]int) {
	tab := map[[2]int]int{}
	ca := map[int]int{}
	cb := map[int]int{}
	for i := range a {
		tab[[2]int{a[i], b[i]}]++
		ca[a[i]]++
		cb[b[i]]++
	}
	return tab, ca, cb
}

func comb2(n int) float64 { return float64(n) * float64(n-1) / 2 }

// AdjustedRandIndex measures agreement between two labelings, corrected for
// chance: 1 = identical partitions, ~0 = random agreement.
func AdjustedRandIndex(a, b []int) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, ErrLabels
	}
	tab, ca, cb := contingency(a, b)
	var sumComb, sumA, sumB float64
	for _, v := range tab {
		sumComb += comb2(v)
	}
	for _, v := range ca {
		sumA += comb2(v)
	}
	for _, v := range cb {
		sumB += comb2(v)
	}
	n := comb2(len(a))
	if n == 0 {
		return 0, ErrLabels
	}
	expected := sumA * sumB / n
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1, nil // both partitions trivial (all singletons or one cluster)
	}
	return (sumComb - expected) / (maxIdx - expected), nil
}

// NMI returns the normalized mutual information (arithmetic normalization)
// between two labelings in [0, 1].
func NMI(a, b []int) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, ErrLabels
	}
	tab, ca, cb := contingency(a, b)
	n := float64(len(a))
	mi := 0.0
	for key, v := range tab {
		pxy := float64(v) / n
		px := float64(ca[key[0]]) / n
		py := float64(cb[key[1]]) / n
		if pxy > 0 {
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	ha, hb := 0.0, 0.0
	for _, v := range ca {
		p := float64(v) / n
		ha -= p * math.Log(p)
	}
	for _, v := range cb {
		p := float64(v) / n
		hb -= p * math.Log(p)
	}
	den := (ha + hb) / 2
	if den == 0 {
		return 1, nil
	}
	v := mi / den
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v, nil
}

// Purity returns the fraction of points whose predicted cluster's majority
// true label matches their own true label.
func Purity(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, ErrLabels
	}
	byCluster := map[int]map[int]int{}
	for i := range pred {
		m := byCluster[pred[i]]
		if m == nil {
			m = map[int]int{}
			byCluster[pred[i]] = m
		}
		m[truth[i]]++
	}
	correct := 0
	for _, m := range byCluster {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(pred)), nil
}

// NeighborhoodPurity measures embedding quality: for each point, the
// fraction of its k nearest neighbors in the embedding sharing its true
// label, averaged over all points. dist operates on embedding indices.
func NeighborhoodPurity(n, k int, labels []int, dist func(i, j int) float64) (float64, error) {
	if n == 0 || len(labels) != n {
		return 0, ErrLabels
	}
	if k <= 0 || k >= n {
		return 0, errors.New("stat: k must be in [1, n-1]")
	}
	total := 0.0
	idx := make([]int, n)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		m := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			idx[m] = j
			d[m] = dist(i, j)
			m++
		}
		// Partial selection of the k smallest.
		selectK(idx[:m], d[:m], k)
		same := 0
		for t := 0; t < k; t++ {
			if labels[idx[t]] == labels[i] {
				same++
			}
		}
		total += float64(same) / float64(k)
	}
	return total / float64(n), nil
}

// selectK partially sorts (idx, d) so the k smallest distances occupy the
// first k positions (quickselect followed by insertion ordering of the head).
func selectK(idx []int, d []float64, k int) {
	lo, hi := 0, len(d)-1
	for lo < hi {
		p := partition(idx, d, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

func partition(idx []int, d []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	d[mid], d[hi] = d[hi], d[mid]
	idx[mid], idx[hi] = idx[hi], idx[mid]
	pivot := d[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if d[j] < pivot {
			d[i], d[j] = d[j], d[i]
			idx[i], idx[j] = idx[j], idx[i]
			i++
		}
	}
	d[i], d[hi] = d[hi], d[i]
	idx[i], idx[hi] = idx[hi], idx[i]
	return i
}
