// Package index provides the spatial indexes VAP's data layer uses in place
// of PostGIS: an in-memory R-tree with quadratic split (Guttman 1984) for
// bounding-box search over customer locations, and a uniform grid index
// for dense raster-style lookups.
package index

import (
	"math"
	"sort"

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

// RTree is an in-memory R-tree over geographic bounding boxes.
// The zero value is not usable; use NewRTree.
// RTree is not safe for concurrent mutation; the store serializes writes.
type RTree struct {
	root *node
	size int
}

// NewRTree returns an empty tree.
func NewRTree() *RTree {
	return &RTree{root: &node{leaf: true, box: geo.EmptyBBox()}}
}

// Len returns the number of stored items.
func (t *RTree) Len() int { return t.size }

// Bounds returns the bounding box of the whole tree (empty box if empty).
func (t *RTree) Bounds() geo.BBox { return t.root.box }

// InsertPoint stores id at point p.
func (t *RTree) InsertPoint(p geo.Point, id int64) {
	t.Insert(Item{Box: geo.PointBox(p), ID: id})
}

// Insert adds an item to the tree.
func (t *RTree) Insert(it Item) {
	t.size++
	split := t.insert(t.root, it)
	if split != nil {
		// Root was split: grow the tree.
		old := t.root
		t.root = &node{leaf: false, children: []*node{old, split}}
		t.root.recomputeBox()
	}
}

// insert descends to a leaf, inserts, and returns a new sibling if the node
// overflowed and was split.
func (t *RTree) insert(n *node, it Item) *node {
	n.box = n.box.Union(it.Box)
	if n.leaf {
		n.items = append(n.items, it)
		if len(n.items) > maxEntries {
			return splitLeaf(n)
		}
		return nil
	}
	child := chooseSubtree(n, it.Box)
	if split := t.insert(child, it); split != nil {
		n.children = append(n.children, split)
		if len(n.children) > maxEntries {
			return splitInternal(n)
		}
	}
	return nil
}

// chooseSubtree picks the child needing least enlargement (ties by area).
func chooseSubtree(n *node, b geo.BBox) *node {
	best := n.children[0]
	bestEnl := best.box.Enlargement(b)
	bestArea := best.box.Area()
	for _, c := range n.children[1:] {
		enl := c.box.Enlargement(b)
		area := c.box.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// quadratic pick-seeds: the pair wasting the most area.
func pickSeeds(boxes []geo.BBox) (int, int) {
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(boxes); i++ {
		for j := i + 1; j < len(boxes); j++ {
			waste := boxes[i].Union(boxes[j]).Area() - boxes[i].Area() - boxes[j].Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	return s1, s2
}

func splitLeaf(n *node) *node {
	items := n.items
	boxes := make([]geo.BBox, len(items))
	for i, it := range items {
		boxes[i] = it.Box
	}
	g1, g2 := quadraticSplit(boxes)
	a := make([]Item, 0, len(g1))
	b := make([]Item, 0, len(g2))
	for _, i := range g1 {
		a = append(a, items[i])
	}
	for _, i := range g2 {
		b = append(b, items[i])
	}
	n.items = a
	n.recomputeBox()
	sib := &node{leaf: true, items: b}
	sib.recomputeBox()
	return sib
}

func splitInternal(n *node) *node {
	children := n.children
	boxes := make([]geo.BBox, len(children))
	for i, c := range children {
		boxes[i] = c.box
	}
	g1, g2 := quadraticSplit(boxes)
	a := make([]*node, 0, len(g1))
	b := make([]*node, 0, len(g2))
	for _, i := range g1 {
		a = append(a, children[i])
	}
	for _, i := range g2 {
		b = append(b, children[i])
	}
	n.children = a
	n.recomputeBox()
	sib := &node{leaf: false, children: b}
	sib.recomputeBox()
	return sib
}

// quadraticSplit partitions indices 0..len(boxes)-1 into two groups using
// Guttman's quadratic algorithm with a minimum fill guarantee.
func quadraticSplit(boxes []geo.BBox) (g1, g2 []int) {
	s1, s2 := pickSeeds(boxes)
	b1, b2 := boxes[s1], boxes[s2]
	g1 = append(g1, s1)
	g2 = append(g2, s2)
	remaining := make([]int, 0, len(boxes)-2)
	for i := range boxes {
		if i != s1 && i != s2 {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		// Force assignment if one group must absorb the rest to reach min fill.
		if len(g1)+len(remaining) == minEntries {
			g1 = append(g1, remaining...)
			for _, i := range remaining {
				b1 = b1.Union(boxes[i])
			}
			break
		}
		if len(g2)+len(remaining) == minEntries {
			g2 = append(g2, remaining...)
			for _, i := range remaining {
				b2 = b2.Union(boxes[i])
			}
			break
		}
		// Pick the entry with the greatest preference for one group.
		bestIdx, bestDiff, bestPos := -1, math.Inf(-1), 0
		for pos, i := range remaining {
			d1 := b1.Enlargement(boxes[i])
			d2 := b2.Enlargement(boxes[i])
			diff := math.Abs(d1 - d2)
			if diff > bestDiff {
				bestDiff, bestIdx, bestPos = diff, i, pos
			}
		}
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)
		d1 := b1.Enlargement(boxes[bestIdx])
		d2 := b2.Enlargement(boxes[bestIdx])
		switch {
		case d1 < d2, d1 == d2 && b1.Area() <= b2.Area():
			g1 = append(g1, bestIdx)
			b1 = b1.Union(boxes[bestIdx])
		default:
			g2 = append(g2, bestIdx)
			b2 = b2.Union(boxes[bestIdx])
		}
	}
	return g1, g2
}

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
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Delete removes one item with the given id whose box intersects hint.
// It returns true if an item was removed. Underflowed nodes are merged by
// reinsertion of their remaining entries.
func (t *RTree) Delete(hint geo.BBox, id int64) bool {
	var orphans []Item
	ok := deleteRec(t.root, hint, id, &orphans)
	if !ok {
		return false
	}
	t.size--
	// Collapse a non-leaf root with a single child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true, box: geo.EmptyBBox()}
	}
	for _, it := range orphans {
		t.size--
		t.Insert(it) // Insert re-increments size.
	}
	return true
}

func deleteRec(n *node, hint geo.BBox, id int64, orphans *[]Item) bool {
	if !n.box.Intersects(hint) {
		return false
	}
	if n.leaf {
		for i, it := range n.items {
			if it.ID == id && it.Box.Intersects(hint) {
				n.items = append(n.items[:i], n.items[i+1:]...)
				n.recomputeBox()
				return true
			}
		}
		return false
	}
	for i, c := range n.children {
		if deleteRec(c, hint, id, orphans) {
			under := (c.leaf && len(c.items) < minEntries) ||
				(!c.leaf && len(c.children) < minEntries)
			if under {
				collectItems(c, orphans)
				n.children = append(n.children[:i], n.children[i+1:]...)
			}
			n.recomputeBox()
			return true
		}
	}
	return false
}

func collectItems(n *node, out *[]Item) {
	if n.leaf {
		*out = append(*out, n.items...)
		return
	}
	for _, c := range n.children {
		collectItems(c, out)
	}
}
