package store

import (
	"fmt"
	"sort"
	"sync"

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
type Catalog struct {
	mu     sync.RWMutex
	meters map[int64]Meter
	tree   *index.RTree
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
	return nil
}

// Get returns the meter with the given ID.
func (c *Catalog) Get(id int64) (Meter, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.meters[id]
	return m, ok
}

// All returns every meter sorted by ID.
func (c *Catalog) All() []Meter {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Meter, 0, len(c.meters))
	for _, m := range c.meters {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns every meter ID sorted ascending.
func (c *Catalog) IDs() []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int64, 0, len(c.meters))
	for id := range c.meters {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
