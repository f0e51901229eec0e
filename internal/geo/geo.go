// Package geo provides the geographic primitives used throughout VAP:
// points, bounding boxes, great-circle distance and a Web-Mercator
// projection for rendering.
//
// All longitudes are in degrees east in [-180, 180] and latitudes in degrees
// north in [-90, 90]. Distances are in meters unless stated otherwise.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by Haversine.
const EarthRadiusMeters = 6371008.8

// Point is a geographic location (longitude, latitude) in degrees.
// The ordering matches the paper's x_i = (lon_i, lat_i)^T convention.
type Point struct {
	Lon float64 `json:"lon"`
	Lat float64 `json:"lat"`
}

// Valid reports whether the point lies within the legal lon/lat ranges and
// contains no NaN or Inf coordinates.
func (p Point) Valid() bool {
	if math.IsNaN(p.Lon) || math.IsNaN(p.Lat) || math.IsInf(p.Lon, 0) || math.IsInf(p.Lat, 0) {
		return false
	}
	return p.Lon >= -180 && p.Lon <= 180 && p.Lat >= -90 && p.Lat <= 90
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lon, p.Lat)
}

// DistanceTo returns the great-circle distance in meters between p and q
// using the Haversine formula.
func (p Point) DistanceTo(q Point) float64 {
	const d = math.Pi / 180
	lat1 := p.Lat * d
	lat2 := q.Lat * d
	dLat := (q.Lat - p.Lat) * d
	dLon := (q.Lon - p.Lon) * d
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// BBox is an axis-aligned geographic bounding box. Min is the south-west
// corner and Max the north-east corner. Boxes crossing the antimeridian are
// not supported; VAP study areas are city-scale.
type BBox struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// NewBBox returns the bounding box with the given corners, normalising the
// corner ordering so that Min <= Max on both axes.
func NewBBox(a, b Point) BBox {
	return BBox{
		Min: Point{Lon: math.Min(a.Lon, b.Lon), Lat: math.Min(a.Lat, b.Lat)},
		Max: Point{Lon: math.Max(a.Lon, b.Lon), Lat: math.Max(a.Lat, b.Lat)},
	}
}

// EmptyBBox returns an inverted box suitable as the identity for Extend.
func EmptyBBox() BBox {
	return BBox{
		Min: Point{Lon: math.Inf(1), Lat: math.Inf(1)},
		Max: Point{Lon: math.Inf(-1), Lat: math.Inf(-1)},
	}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool {
	return b.Min.Lon > b.Max.Lon || b.Min.Lat > b.Max.Lat
}

// Contains reports whether p lies inside b (inclusive of edges).
func (b BBox) Contains(p Point) bool {
	return p.Lon >= b.Min.Lon && p.Lon <= b.Max.Lon &&
		p.Lat >= b.Min.Lat && p.Lat <= b.Max.Lat
}

// Intersects reports whether b and o share any area or edge.
func (b BBox) Intersects(o BBox) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.Min.Lon <= o.Max.Lon && b.Max.Lon >= o.Min.Lon &&
		b.Min.Lat <= o.Max.Lat && b.Max.Lat >= o.Min.Lat
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return BBox{
		Min: Point{Lon: math.Min(b.Min.Lon, o.Min.Lon), Lat: math.Min(b.Min.Lat, o.Min.Lat)},
		Max: Point{Lon: math.Max(b.Max.Lon, o.Max.Lon), Lat: math.Max(b.Max.Lat, o.Max.Lat)},
	}
}

// Center returns the box midpoint.
func (b BBox) Center() Point {
	return Point{Lon: (b.Min.Lon + b.Max.Lon) / 2, Lat: (b.Min.Lat + b.Max.Lat) / 2}
}

// Buffer returns the box grown by d degrees on every side.
func (b BBox) Buffer(d float64) BBox {
	return BBox{
		Min: Point{Lon: b.Min.Lon - d, Lat: b.Min.Lat - d},
		Max: Point{Lon: b.Max.Lon + d, Lat: b.Max.Lat + d},
	}
}

// PointBox returns the degenerate box covering exactly p.
func PointBox(p Point) BBox { return BBox{Min: p, Max: p} }

// Mercator projects a geographic point to Web-Mercator "world" coordinates
// in [0,1]x[0,1], with (0,0) at the north-west corner, matching the
// convention of slippy-map tiles used by Leaflet.
func Mercator(p Point) (x, y float64) {
	x = (p.Lon + 180) / 360
	latRad := p.Lat * math.Pi / 180
	y = (1 - math.Log(math.Tan(latRad)+1/math.Cos(latRad))/math.Pi) / 2
	return x, y
}

// MetersPerDegreeLat is the approximate north-south extent of one degree of
// latitude.
const MetersPerDegreeLat = 111132.954

// MetersPerDegreeLon returns the east-west extent of one degree of longitude
// at the given latitude.
func MetersPerDegreeLon(lat float64) float64 {
	return MetersPerDegreeLat * math.Cos(lat*math.Pi/180)
}
