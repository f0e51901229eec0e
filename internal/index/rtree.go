// Package index holds the spatial index VAP's data layer uses in place of
// PostGIS: an immutable R-tree over meter locations, bulk-loaded with
// Sort-Tile-Recursive packing (Leutenegger, Lopez & Edgington, ICDE 1997)
// each time the store's catalog publishes a new view, and searched by
// bounding box for every spatial selection.
package index

import (
	"math"
	"slices"

	"vap/internal/geo"
)

const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5 // 40% fill guarantee
)

// Item is a value stored in the R-tree, keyed by its bounding box.
type Item struct {
	Box geo.BBox
	ID  int64
}

type node struct {
	box      geo.BBox
	leaf     bool
	items    []Item  // when leaf
	children []*node // when internal
}

func (n *node) recomputeBox() {
	b := geo.EmptyBBox()
	if n.leaf {
		for _, it := range n.items {
			b = b.Union(it.Box)
		}
	} else {
		for _, c := range n.children {
			b = b.Union(c.box)
		}
	}
	n.box = b
}

// RTree is an immutable in-memory R-tree over geographic bounding boxes,
// built by Pack. It is safe for concurrent reads.
type RTree struct {
	root *node
	size int
}

// Pack builds a tree over items with Sort-Tile-Recursive packing. Each
// level sorts its entries by box-centre longitude, cuts them into ⌈√P⌉
// slabs (P: the level's node count), sorts each slab by latitude and cuts
// it into nodes of at most maxEntries, spread evenly so that no node but
// the root holds fewer than minEntries. Pack does not retain items.
// Pack(nil) is the empty tree.
func Pack(items []Item) *RTree {
	if len(items) == 0 {
		return &RTree{root: &node{leaf: true, box: geo.EmptyBBox()}}
	}
	level := packLevel(items, func(it Item) geo.BBox { return it.Box },
		func(g []Item) *node { return &node{leaf: true, items: g} })
	for len(level) > 1 {
		level = packLevel(level, func(n *node) geo.BBox { return n.box },
			func(g []*node) *node { return &node{children: g} })
	}
	return &RTree{root: level[0], size: len(items)}
}

// packLevel tiles one level's entries and returns one node per tile, made
// by mk over a slice of a tiled copy of es.
func packLevel[E any](es []E, box func(E) geo.BBox, mk func([]E) *node) []*node {
	type sortKey struct {
		k float64 // a coordinate of the entry's box centre
		i int     // the entry's index in es
	}
	byKey := func(a, b sortKey) int { // cmp.Compare without its NaN cases
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	}
	n := len(es)
	ks := make([]sortKey, n)
	lat := make([]float64, n)
	for i, e := range es {
		c := box(e).Center()
		ks[i], lat[i] = sortKey{c.Lon, i}, c.Lat
	}
	slices.SortFunc(ks, byKey)
	slabs := int(math.Ceil(math.Sqrt(float64((n + maxEntries - 1) / maxEntries))))
	for s := range slabs {
		slab := ks[s*n/slabs : (s+1)*n/slabs]
		for j := range slab {
			slab[j].k = lat[slab[j].i]
		}
		slices.SortFunc(slab, byKey)
	}
	tiled := make([]E, n)
	for j, k := range ks {
		tiled[j] = es[k.i]
	}
	var out []*node
	for s := range slabs {
		slab := tiled[s*n/slabs : (s+1)*n/slabs]
		// k runs whose lengths differ by at most one. With k > 1 each run
		// holds more than maxEntries/2; with k == 1 the run is the slab,
		// which holds at least minEntries whenever the level has more than
		// maxEntries entries.
		m := len(slab)
		k := (m + maxEntries - 1) / maxEntries
		for j := range k {
			nd := mk(slab[j*m/k : (j+1)*m/k : (j+1)*m/k])
			nd.recomputeBox()
			out = append(out, nd)
		}
	}
	return out
}

// Len returns the number of stored items.
func (t *RTree) Len() int { return t.size }

// Bounds returns the bounding box of the whole tree (empty box if empty).
func (t *RTree) Bounds() geo.BBox { return t.root.box }

// Search appends to dst the IDs of all items whose boxes intersect query,
// and returns the extended slice. Order is unspecified.
func (t *RTree) Search(query geo.BBox, dst []int64) []int64 {
	return searchNode(t.root, query, dst)
}

func searchNode(n *node, q geo.BBox, dst []int64) []int64 {
	if !n.box.Intersects(q) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Box.Intersects(q) {
				dst = append(dst, it.ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = searchNode(c, q, dst)
	}
	return dst
}

// SearchSorted is Search with the result sorted ascending, convenient for
// deterministic tests and stable API responses.
func (t *RTree) SearchSorted(query geo.BBox) []int64 {
	ids := t.Search(query, nil)
	slices.Sort(ids)
	return ids
}
