package cluster

import (
	"math"
	"testing"

	"vap/internal/stat"
)

// lineDist builds the distance matrix of 1-D positions.
func lineDist(pos []float64) [][]float64 {
	n := len(pos)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = math.Abs(pos[i] - pos[j])
		}
	}
	return d
}

func TestAgglomerativeTwoGroups(t *testing.T) {
	pos := []float64{0, 0.1, 0.2, 10, 10.1, 10.2}
	for _, link := range []Linkage{LinkageSingle, LinkageComplete, LinkageAverage} {
		dg, err := Agglomerative(lineDist(pos), link)
		if err != nil {
			t.Fatalf("%s: %v", link, err)
		}
		if len(dg.Merges) != 5 {
			t.Fatalf("%s: merges = %d, want 5", link, len(dg.Merges))
		}
		labels, err := dg.Cut(2)
		if err != nil {
			t.Fatal(err)
		}
		truth := []int{0, 0, 0, 1, 1, 1}
		ari, _ := stat.AdjustedRandIndex(labels, truth)
		if ari != 1 {
			t.Errorf("%s: cut(2) ARI = %v, labels %v", link, ari, labels)
		}
	}
}

func TestAgglomerativeMergeDistancesMonotone(t *testing.T) {
	pos := []float64{0, 1, 3, 7, 15, 31}
	for _, link := range []Linkage{LinkageSingle, LinkageComplete, LinkageAverage} {
		dg, err := Agglomerative(lineDist(pos), link)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(dg.Merges); i++ {
			if dg.Merges[i].Distance < dg.Merges[i-1].Distance-1e-12 {
				t.Errorf("%s: merge distance decreased at %d", link, i)
			}
		}
		// The final merge contains all points.
		if dg.Merges[len(dg.Merges)-1].Size != len(pos) {
			t.Errorf("%s: final size = %d", link, dg.Merges[len(dg.Merges)-1].Size)
		}
	}
}

func TestSingleVsCompleteOnChain(t *testing.T) {
	// A chain 0-1-2-3-4 with unit gaps and one big jump to a pair.
	pos := []float64{0, 1, 2, 3, 4, 100, 101}
	single, _ := Agglomerative(lineDist(pos), LinkageSingle)
	complete, _ := Agglomerative(lineDist(pos), LinkageComplete)
	sl, _ := single.Cut(2)
	cl, _ := complete.Cut(2)
	truth := []int{0, 0, 0, 0, 0, 1, 1}
	sARI, _ := stat.AdjustedRandIndex(sl, truth)
	cARI, _ := stat.AdjustedRandIndex(cl, truth)
	// Single linkage must chain the run perfectly; complete linkage also
	// separates the far pair here.
	if sARI != 1 {
		t.Errorf("single cut = %v", sl)
	}
	if cARI != 1 {
		t.Errorf("complete cut = %v", cl)
	}
}

func TestCutExtremes(t *testing.T) {
	pos := []float64{0, 1, 2, 3}
	dg, _ := Agglomerative(lineDist(pos), LinkageAverage)
	one, err := dg.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range one {
		if l != 0 {
			t.Fatalf("cut(1) = %v", one)
		}
	}
	all, err := dg.Cut(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range all {
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Fatalf("cut(n) = %v", all)
	}
	if _, err := dg.Cut(0); err == nil {
		t.Error("cut(0) should fail")
	}
	if _, err := dg.Cut(5); err == nil {
		t.Error("cut(n+1) should fail")
	}
}

func TestAgglomerativeErrors(t *testing.T) {
	if _, err := Agglomerative(nil, LinkageSingle); err == nil {
		t.Error("empty should fail")
	}
	if _, err := Agglomerative([][]float64{{0, 1}}, LinkageSingle); err == nil {
		t.Error("ragged should fail")
	}
	if _, err := Agglomerative(lineDist([]float64{1, 2}), "ward"); err == nil {
		t.Error("unknown linkage should fail")
	}
}

func TestDBSCANTwoBlobsAndNoise(t *testing.T) {
	pos := []float64{0, 0.1, 0.2, 0.3, 10, 10.1, 10.2, 10.3, 500}
	labels, err := DBSCAN(lineDist(pos), DBSCANConfig{Eps: 0.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ClusterCount(labels) != 2 {
		t.Fatalf("clusters = %d, labels %v", ClusterCount(labels), labels)
	}
	if labels[8] != Noise {
		t.Errorf("outlier labelled %d, want noise", labels[8])
	}
	if NoiseCount(labels) != 1 {
		t.Errorf("noise count = %d", NoiseCount(labels))
	}
	// Cluster membership is consistent within blobs.
	if labels[0] != labels[3] || labels[4] != labels[7] || labels[0] == labels[4] {
		t.Errorf("labels = %v", labels)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	pos := []float64{0, 100, 200, 300}
	labels, err := DBSCAN(lineDist(pos), DBSCANConfig{Eps: 1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if NoiseCount(labels) != 4 {
		t.Errorf("labels = %v, want all noise", labels)
	}
}

func TestDBSCANBorderPoint(t *testing.T) {
	// A point within eps of a core point but itself not core joins the
	// cluster as a border point.
	pos := []float64{0, 0.4, 0.8, 1.6}
	labels, err := DBSCAN(lineDist(pos), DBSCANConfig{Eps: 0.9, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if labels[3] == Noise && labels[2] != Noise {
		// index 3 is within 0.9 of index 2; if 2 is in a cluster, 3 should
		// be reachable only if 2 is core — verify consistent semantics.
		nb := 0
		for _, p := range pos {
			if math.Abs(p-pos[2]) <= 0.9 {
				nb++
			}
		}
		if nb >= 3 {
			t.Errorf("border point excluded despite core neighbor: %v", labels)
		}
	}
}

func TestDBSCANErrors(t *testing.T) {
	d := lineDist([]float64{1, 2})
	if _, err := DBSCAN(nil, DBSCANConfig{Eps: 1, MinPts: 1}); err == nil {
		t.Error("empty should fail")
	}
	if _, err := DBSCAN(d, DBSCANConfig{Eps: 0, MinPts: 1}); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := DBSCAN(d, DBSCANConfig{Eps: 1, MinPts: 0}); err == nil {
		t.Error("minPts=0 should fail")
	}
}
