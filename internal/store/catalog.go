package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"vap/internal/geo"
	"vap/internal/index"
)

// ZoneType classifies the land use at a meter's location, mirroring the
// commercial/residential distinction central to the paper's Figure 3 flow
// map discussion.
type ZoneType string

// Zone types recognised by the catalog.
const (
	ZoneResidential ZoneType = "residential"
	ZoneCommercial  ZoneType = "commercial"
	ZoneIndustrial  ZoneType = "industrial"
	ZoneMixed       ZoneType = "mixed"
)

// Meter is customer/meter metadata held in the catalog.
type Meter struct {
	ID       int64             `json:"id"`
	Location geo.Point         `json:"location"`
	Zone     ZoneType          `json:"zone"`
	Labels   map[string]string `json:"labels,omitempty"`
}

// Catalog is the metadata registry with a spatial index over meter
// locations. It is safe for concurrent use.
//
// Reads that enumerate meters go through a published view: an immutable
// sorted copy of the registry, built by the first such read after a Put and
// shared by every read until the next one. A statement's meter resolution
// then costs a copy of the ids it selects, not a sort of the catalog and a
// locked lookup per id.
type Catalog struct {
	mu     sync.RWMutex
	meters map[int64]Meter
	tree   *index.RTree
	view   atomic.Pointer[catalogView] // nil after a Put until the next read
}

// catalogView is one published state of the catalog. Nothing in it is
// written after it is published; callers get copies.
type catalogView struct {
	meters []Meter              // every meter, by ascending ID
	ids    []int64              // ids[i] == meters[i].ID
	byZone map[ZoneType][]int64 // each zone's ids, ascending
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{meters: make(map[int64]Meter), tree: index.NewRTree()}
}

// Len returns the number of registered meters.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.meters)
}

// Put registers or replaces a meter. Replacing relocates it in the index.
func (c *Catalog) Put(m Meter) error {
	if !m.Location.Valid() {
		return fmt.Errorf("store: meter %d has invalid location %v", m.ID, m.Location)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.meters[m.ID]; ok {
		c.tree.Delete(geo.PointBox(old.Location), m.ID)
	}
	c.meters[m.ID] = m
	c.tree.InsertPoint(m.Location, m.ID)
	c.view.Store(nil)
	return nil
}

// load returns the current view, building it if a Put retired the last
// one. The view is built and published under the read lock, which no Put
// can hold at the same time, so a published view is never older than the
// last Put that returned.
func (c *Catalog) load() *catalogView {
	if v := c.view.Load(); v != nil {
		return v
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v := c.view.Load(); v != nil {
		return v
	}
	v := &catalogView{meters: make([]Meter, 0, len(c.meters)), byZone: make(map[ZoneType][]int64)}
	for _, m := range c.meters {
		v.meters = append(v.meters, m)
	}
	slices.SortFunc(v.meters, func(a, b Meter) int { return cmp.Compare(a.ID, b.ID) })
	v.ids = make([]int64, len(v.meters))
	for i, m := range v.meters {
		v.ids[i] = m.ID
		v.byZone[m.Zone] = append(v.byZone[m.Zone], m.ID)
	}
	c.view.Store(v)
	return v
}

// Get returns the meter with the given ID.
func (c *Catalog) Get(id int64) (Meter, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.meters[id]
	return m, ok
}

// All returns every meter sorted by ID.
func (c *Catalog) All() []Meter { return slices.Clone(c.load().meters) }

// IDs returns every meter ID sorted ascending.
func (c *Catalog) IDs() []int64 { return slices.Clone(c.load().ids) }

// ZoneIDs returns the IDs of the meters in zone z, sorted ascending.
func (c *Catalog) ZoneIDs(z ZoneType) []int64 { return slices.Clone(c.load().byZone[z]) }

// Filter keeps, in place and in order, the ids that name a registered
// meter in zone z ("" = any zone) whose location box holds (nil = any
// location), and returns the kept prefix.
func (c *Catalog) Filter(ids []int64, z ZoneType, box *geo.BBox) []int64 {
	v := c.load()
	kept := ids[:0]
	for _, id := range ids {
		i, ok := slices.BinarySearch(v.ids, id)
		if ok && (z == "" || v.meters[i].Zone == z) && (box == nil || box.Contains(v.meters[i].Location)) {
			kept = append(kept, id)
		}
	}
	return kept
}

// Within returns the IDs of meters inside box, sorted ascending.
func (c *Catalog) Within(box geo.BBox) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tree.SearchSorted(box)
}

// Bounds returns the bounding box of all meters (empty box when empty).
func (c *Catalog) Bounds() geo.BBox {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tree.Bounds()
}
