package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointValid(t *testing.T) {
	cases := []struct {
		p  Point
		ok bool
	}{
		{Point{0, 0}, true},
		{Point{-180, -90}, true},
		{Point{180, 90}, true},
		{Point{181, 0}, false},
		{Point{0, 91}, false},
		{Point{math.NaN(), 0}, false},
		{Point{0, math.Inf(1)}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.ok {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.ok)
		}
	}
}

func TestDistanceToZero(t *testing.T) {
	p := Point{Lon: 12.5, Lat: 55.7}
	if d := p.DistanceTo(p); d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestDistanceToKnown(t *testing.T) {
	// Copenhagen to Aarhus is roughly 157 km great-circle.
	cph := Point{Lon: 12.5683, Lat: 55.6761}
	aar := Point{Lon: 10.2039, Lat: 56.1629}
	d := cph.DistanceTo(aar)
	if d < 150e3 || d > 165e3 {
		t.Errorf("CPH-AAR distance = %.0f m, want ~157 km", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2 float64) bool {
		p := Point{Lon: wrap(lon1, 180), Lat: wrap(lat1, 90)}
		q := Point{Lon: wrap(lon2, 180), Lat: wrap(lat2, 90)}
		d1 := p.DistanceTo(q)
		d2 := q.DistanceTo(p)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// wrap maps an arbitrary float into [-limit, limit].
func wrap(v, limit float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	m := math.Mod(v, 2*limit)
	if m > limit {
		m -= 2 * limit
	}
	if m < -limit {
		m += 2 * limit
	}
	return m
}

func TestBBoxContains(t *testing.T) {
	b := NewBBox(Point{0, 0}, Point{10, 10})
	for _, p := range []Point{{0, 0}, {10, 10}, {5, 5}, {0, 10}} {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	for _, p := range []Point{{-1, 5}, {5, 11}, {10.001, 0}} {
		if b.Contains(p) {
			t.Errorf("box should not contain %v", p)
		}
	}
}

func TestNewBBoxNormalizes(t *testing.T) {
	b := NewBBox(Point{10, 10}, Point{0, 0})
	if b.Min.Lon != 0 || b.Min.Lat != 0 || b.Max.Lon != 10 || b.Max.Lat != 10 {
		t.Errorf("NewBBox did not normalize corners: %+v", b)
	}
}

func TestBBoxIntersects(t *testing.T) {
	a := NewBBox(Point{0, 0}, Point{10, 10})
	cases := []struct {
		b    BBox
		want bool
	}{
		{NewBBox(Point{5, 5}, Point{15, 15}), true},
		{NewBBox(Point{10, 10}, Point{20, 20}), true}, // edge touch
		{NewBBox(Point{11, 11}, Point{20, 20}), false},
		{NewBBox(Point{-5, -5}, Point{-1, -1}), false},
		{EmptyBBox(), false},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestEmptyBBox(t *testing.T) {
	e := EmptyBBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBBox should be empty")
	}
}

func TestBBoxUnionIdentity(t *testing.T) {
	b := NewBBox(Point{1, 2}, Point{3, 4})
	if got := b.Union(EmptyBBox()); got != b {
		t.Errorf("Union with empty = %v, want %v", got, b)
	}
	if got := EmptyBBox().Union(b); got != b {
		t.Errorf("empty Union b = %v, want %v", got, b)
	}
}

func TestBBoxUnionCommutativeProperty(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2, d1, d2 float64) bool {
		a := NewBBox(Point{wrap(a1, 180), wrap(a2, 90)}, Point{wrap(b1, 180), wrap(b2, 90)})
		b := NewBBox(Point{wrap(c1, 180), wrap(c2, 90)}, Point{wrap(d1, 180), wrap(d2, 90)})
		return a.Union(b) == b.Union(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxCenterMargin(t *testing.T) {
	b := NewBBox(Point{0, 0}, Point{4, 2})
	if c := b.Center(); c != (Point{2, 1}) {
		t.Errorf("center = %v, want (2,1)", c)
	}
}

func TestBBoxBuffer(t *testing.T) {
	b := NewBBox(Point{1, 1}, Point{2, 2}).Buffer(0.5)
	if b.Min.Lon != 0.5 || b.Max.Lat != 2.5 {
		t.Errorf("buffered box wrong: %+v", b)
	}
}

func TestMercatorCorners(t *testing.T) {
	x, y := Mercator(Point{Lon: 0, Lat: 0})
	if math.Abs(x-0.5) > 1e-12 || math.Abs(y-0.5) > 1e-12 {
		t.Errorf("equator/prime meridian maps to (%v,%v), want (0.5,0.5)", x, y)
	}
	x, _ = Mercator(Point{Lon: -180, Lat: 0})
	if math.Abs(x) > 1e-12 {
		t.Errorf("lon -180 maps to x=%v, want 0", x)
	}
}

func TestMetersPerDegreeLon(t *testing.T) {
	if m := MetersPerDegreeLon(0); math.Abs(m-MetersPerDegreeLat) > 1 {
		t.Errorf("at equator lon degree = %v, want ~lat degree", m)
	}
	if m := MetersPerDegreeLon(90); math.Abs(m) > 1e-6 {
		t.Errorf("at pole lon degree = %v, want ~0", m)
	}
	if m := MetersPerDegreeLon(60); math.Abs(m-MetersPerDegreeLat/2) > 100 {
		t.Errorf("at 60N lon degree = %v, want ~half of lat degree", m)
	}
}
