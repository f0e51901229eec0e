package index

import (
	"vap/internal/geo"
)

// Grid is a uniform spatial hash over a fixed study-area bounding box. No
// binary reaches it; only its tests do.
type Grid struct {
	box          geo.BBox
	cols, rows   int
	cellW, cellH float64
	cells        map[int][]int64
	count        int
}

// NewGrid returns a grid with cols x rows cells over box. cols and rows are
// clamped to at least 1.
func NewGrid(box geo.BBox, cols, rows int) *Grid {
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	w := box.Max.Lon - box.Min.Lon
	h := box.Max.Lat - box.Min.Lat
	if w <= 0 {
		w = 1e-9
	}
	if h <= 0 {
		h = 1e-9
	}
	return &Grid{
		box:   box,
		cols:  cols,
		rows:  rows,
		cellW: w / float64(cols),
		cellH: h / float64(rows),
		cells: make(map[int][]int64),
	}
}

// Len returns the number of inserted points.
func (g *Grid) Len() int { return g.count }

// Dims returns (cols, rows).
func (g *Grid) Dims() (int, int) { return g.cols, g.rows }

// Bounds returns the grid's study-area box.
func (g *Grid) Bounds() geo.BBox { return g.box }

// CellOf returns the (col, row) containing p, clamped to the grid.
func (g *Grid) CellOf(p geo.Point) (col, row int) {
	col = int((p.Lon - g.box.Min.Lon) / g.cellW)
	row = int((p.Lat - g.box.Min.Lat) / g.cellH)
	if col < 0 {
		col = 0
	}
	if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return col, row
}

// CellCenter returns the geographic center of cell (col, row).
func (g *Grid) CellCenter(col, row int) geo.Point {
	return geo.Point{
		Lon: g.box.Min.Lon + (float64(col)+0.5)*g.cellW,
		Lat: g.box.Min.Lat + (float64(row)+0.5)*g.cellH,
	}
}

// CellBox returns the bounding box of cell (col, row).
func (g *Grid) CellBox(col, row int) geo.BBox {
	min := geo.Point{
		Lon: g.box.Min.Lon + float64(col)*g.cellW,
		Lat: g.box.Min.Lat + float64(row)*g.cellH,
	}
	return geo.BBox{Min: min, Max: geo.Point{Lon: min.Lon + g.cellW, Lat: min.Lat + g.cellH}}
}

func (g *Grid) key(col, row int) int { return row*g.cols + col }

// Insert stores id at point p.
func (g *Grid) Insert(p geo.Point, id int64) {
	c, r := g.CellOf(p)
	k := g.key(c, r)
	g.cells[k] = append(g.cells[k], id)
	g.count++
}

// Query appends IDs in all cells intersecting box and returns the slice.
// Results may include IDs slightly outside box (cell granularity); callers
// needing exact containment must post-filter.
func (g *Grid) Query(box geo.BBox, dst []int64) []int64 {
	if !g.box.Intersects(box) {
		return dst
	}
	c0, r0 := g.CellOf(box.Min)
	c1, r1 := g.CellOf(box.Max)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			dst = append(dst, g.cells[g.key(c, r)]...)
		}
	}
	return dst
}

// ForEachCell calls fn for every non-empty cell with its (col,row) and ids.
func (g *Grid) ForEachCell(fn func(col, row int, ids []int64)) {
	for k, ids := range g.cells {
		fn(k%g.cols, k/g.cols, ids)
	}
}
