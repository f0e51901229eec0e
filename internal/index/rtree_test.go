package index

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"vap/internal/geo"
)

func randPoint(rng *rand.Rand) geo.Point {
	return geo.Point{
		Lon: 12.4 + rng.Float64()*0.4,
		Lat: 55.5 + rng.Float64()*0.3,
	}
}

// The tests' structural oracle: a full walk, the height, and the R-tree
// invariants, read straight off the nodes.

// Walk calls fn for every stored item. Iteration order is unspecified.
func (t *RTree) Walk(fn func(Item)) {
	walk(t.root, fn)
}

func walk(n *node, fn func(Item)) {
	if n.leaf {
		for _, it := range n.items {
			fn(it)
		}
		return
	}
	for _, c := range n.children {
		walk(c, fn)
	}
}

// Height returns the tree height (1 for a lone leaf).
func (t *RTree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// CheckInvariants validates structural invariants (box containment, fill
// factors) and returns false with a description on the first violation.
func (t *RTree) CheckInvariants() (bool, string) {
	return checkNode(t.root, true)
}

func checkNode(n *node, isRoot bool) (bool, string) {
	if n.leaf {
		if !isRoot && len(n.items) < minEntries {
			return false, "leaf underflow"
		}
		for _, it := range n.items {
			if n.box.Union(it.Box) != n.box {
				return false, "leaf box does not cover item"
			}
		}
		return true, ""
	}
	if !isRoot && len(n.children) < minEntries {
		return false, "internal underflow"
	}
	for _, c := range n.children {
		if n.box.Union(c.box) != n.box {
			return false, "internal box does not cover child"
		}
		if ok, msg := checkNode(c, false); !ok {
			return false, msg
		}
	}
	return true, ""
}

// packPoints packs a tree holding pts[i] under id i.
func packPoints(pts []geo.Point) *RTree {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Box: geo.PointBox(p), ID: int64(i)}
	}
	return Pack(items)
}

func TestRTreeEmpty(t *testing.T) {
	tr := Pack(nil)
	if tr.Len() != 0 {
		t.Fatalf("empty len = %d", tr.Len())
	}
	if got := tr.Search(geo.NewBBox(geo.Point{Lon: 0, Lat: 0}, geo.Point{Lon: 90, Lat: 90}), nil); len(got) != 0 {
		t.Errorf("search on empty = %v", got)
	}
}

func TestRTreeInsertSearchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geo.Point, 500)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	tr := packPoints(pts)
	if tr.Len() != 500 {
		t.Fatalf("len = %d, want 500", tr.Len())
	}
	if ok, msg := tr.CheckInvariants(); !ok {
		t.Fatalf("invariant violated: %s", msg)
	}
	// Compare tree search against brute force for random query boxes.
	for q := 0; q < 50; q++ {
		a, b := randPoint(rng), randPoint(rng)
		box := geo.NewBBox(a, b)
		got := tr.SearchSorted(box)
		var want []int64
		for i, p := range pts {
			if box.Contains(p) {
				want = append(want, int64(i))
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d ids, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: got[%d]=%d want %d", q, i, got[i], want[i])
			}
		}
	}
}

func TestRTreeDuplicatePoints(t *testing.T) {
	p := geo.Point{Lon: 12.5, Lat: 55.7}
	tr := packPoints(slices.Repeat([]geo.Point{p}, 50))
	got := tr.SearchSorted(geo.PointBox(p))
	if len(got) != 50 {
		t.Fatalf("duplicate point search = %d, want 50", len(got))
	}
}

func TestRTreeWalkVisitsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]geo.Point, 123)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	tr := packPoints(pts)
	seen := map[int64]bool{}
	tr.Walk(func(it Item) { seen[it.ID] = true })
	if len(seen) != 123 {
		t.Fatalf("walk visited %d, want 123", len(seen))
	}
}

func TestRTreeHeightGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if h := Pack(nil).Height(); h != 1 {
		t.Fatalf("empty height = %d", h)
	}
	pts := make([]geo.Point, 1000)
	for i := range pts {
		pts[i] = randPoint(rng)
	}
	if h := packPoints(pts).Height(); h < 2 || h > 6 {
		t.Errorf("height over 1000 points = %d, want small and > 1", h)
	}
}

func TestRTreePropertySearchContainsInserted(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%120 + 1
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = randPoint(rng)
		}
		tr := packPoints(pts)
		// Every packed point must be findable by its own point box.
		for i, p := range pts {
			found := false
			for _, id := range tr.Search(geo.PointBox(p), nil) {
				if id == int64(i) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		ok, _ := tr.CheckInvariants()
		return ok && tr.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPackEverySize packs sizes up to a few levels deep and checks the fill
// and cover invariants, the bounds, that every leaf sits at the same depth,
// and that the walk returns each id once.
func TestPackEverySize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 1100; n += 1 + n/40 {
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = randPoint(rng)
		}
		tr := packPoints(pts)
		if ok, msg := tr.CheckInvariants(); !ok {
			t.Fatalf("n=%d: %s", n, msg)
		}
		bounds := geo.EmptyBBox()
		for _, p := range pts {
			bounds = bounds.Union(geo.PointBox(p))
		}
		if tr.Bounds() != bounds {
			t.Fatalf("n=%d: bounds %v, want %v", n, tr.Bounds(), bounds)
		}
		seen := map[int64]bool{}
		tr.Walk(func(it Item) { seen[it.ID] = true })
		if tr.Len() != n || len(seen) != n {
			t.Fatalf("n=%d: len %d, walked %d distinct ids", n, tr.Len(), len(seen))
		}
		var depth func(nd *node, d int)
		depth = func(nd *node, d int) {
			if nd.leaf {
				if d != tr.Height() {
					t.Fatalf("n=%d: a leaf at depth %d, height %d", n, d, tr.Height())
				}
				return
			}
			for _, c := range nd.children {
				depth(c, d+1)
			}
		}
		depth(tr.root, 1)
	}
}
