package store

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"vap/internal/geo"
)

// TestCatalogSetReadsMatchModel drives random registrations and re-puts —
// relocations, the extreme meter moved inward so the bounds must shrink,
// re-zones, duplicate locations — and after every step holds each catalog
// read to a brute-force answer over a model map: Within over random boxes,
// point boxes and a box covering nothing, Bounds, IDs, ZoneIDs, Filter,
// All, Get and Len. The first check runs on the empty catalog.
func TestCatalogSetReadsMatchModel(t *testing.T) {
	zones := []ZoneType{ZoneResidential, ZoneCommercial, ZoneIndustrial, ZoneMixed, ""}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCatalog()
		model := map[int64]Meter{}
		// Coordinates on a coarse grid, so locations repeat and box edges
		// land exactly on meters.
		point := func() geo.Point {
			return geo.Point{Lon: 12.4 + float64(rng.Intn(40))*0.01, Lat: 55.5 + float64(rng.Intn(30))*0.01}
		}
		// someID returns a registered id, or false when there is none.
		someID := func() (int64, bool) {
			if len(model) == 0 {
				return 0, false
			}
			ids := slices.Sorted(maps.Keys(model))
			return ids[rng.Intn(len(ids))], true
		}
		put := func(m Meter) {
			t.Helper()
			if err := c.Put(m); err != nil {
				t.Fatalf("seed %d: put %+v: %v", seed, m, err)
			}
			model[m.ID] = m
		}
		checkModel(t, seed, 0, c, model, rng, zones, point)
		for step := 1; step <= 120; step++ {
			id, ok := someID()
			switch op := rng.Intn(10); {
			case !ok || op < 4: // register a new meter
				m := Meter{ID: int64(rng.Intn(400)) + 1, Location: point(), Zone: zones[rng.Intn(len(zones))]}
				for model[m.ID].ID != 0 {
					m.ID++
				}
				if ok && rng.Intn(3) == 0 {
					m.Location = model[id].Location // a duplicate location
				}
				put(m)
			case op < 6: // relocate
				m := model[id]
				m.Location = point()
				put(m)
			case op < 7: // move the easternmost meter to the middle
				east := model[id]
				for _, m := range model {
					if m.Location.Lon > east.Location.Lon {
						east = m
					}
				}
				east.Location = geo.Point{Lon: 12.6, Lat: 55.65}
				put(east)
			case op < 9: // re-zone
				m := model[id]
				m.Zone = zones[rng.Intn(len(zones))]
				put(m)
			default: // re-put unchanged
				put(model[id])
			}
			checkModel(t, seed, step, c, model, rng, zones, point)
		}
	}
}

// checkModel compares every catalog read with its brute-force answer.
func checkModel(t *testing.T, seed int64, step int, c *Catalog, model map[int64]Meter, rng *rand.Rand, zones []ZoneType, point func() geo.Point) {
	t.Helper()
	ids := slices.Sorted(maps.Keys(model))
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("seed %d step %d (%d meters): %s = %v, want %v", seed, step, len(model), what, got, want)
	}
	within := func(box geo.BBox) []int64 {
		var out []int64
		for _, id := range ids {
			if box.Contains(model[id].Location) {
				out = append(out, id)
			}
		}
		return out
	}
	if c.Len() != len(model) {
		fail("Len", c.Len(), len(model))
	}
	if got := c.IDs(); !slices.Equal(got, ids) {
		fail("IDs", got, ids)
	}
	all := c.All()
	if len(all) != len(ids) {
		fail("len(All)", len(all), len(ids))
	}
	for i, id := range ids {
		want := model[id]
		if m, ok := c.Get(id); !ok || m.ID != want.ID || m.Location != want.Location || m.Zone != want.Zone {
			fail("Get", m, want)
		}
		if a := all[i]; a.ID != want.ID || a.Location != want.Location || a.Zone != want.Zone {
			fail("All", a, want)
		}
	}
	if _, ok := c.Get(-1); ok {
		fail("Get(-1) found", ok, false)
	}
	for _, z := range zones {
		var want []int64
		for _, id := range ids {
			if model[id].Zone == z {
				want = append(want, id)
			}
		}
		if got := c.ZoneIDs(z); !slices.Equal(got, want) {
			fail("ZoneIDs("+string(z)+")", got, want)
		}
	}
	bounds := geo.EmptyBBox()
	for _, id := range ids {
		bounds = bounds.Union(geo.PointBox(model[id].Location))
	}
	if got := c.Bounds(); got != bounds {
		fail("Bounds", got, bounds)
	}
	boxes := []geo.BBox{
		geo.NewBBox(geo.Point{Lon: -40, Lat: -40}, geo.Point{Lon: -39, Lat: -39}), // covers nothing
		geo.NewBBox(geo.Point{Lon: -180, Lat: -90}, geo.Point{Lon: 180, Lat: 90}),
		geo.PointBox(point()),
	}
	for range 6 {
		boxes = append(boxes, geo.NewBBox(point(), point()))
	}
	if len(ids) > 0 {
		boxes = append(boxes, geo.PointBox(model[ids[rng.Intn(len(ids))]].Location))
	}
	for _, box := range boxes {
		if got, want := c.Within(box), within(box); !slices.Equal(got, want) {
			fail("Within", got, want)
		}
	}
	for range 4 {
		var sel []int64
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				sel = append(sel, id)
			}
		}
		sel = append(sel, 100000) // never registered
		z := zones[rng.Intn(len(zones))]
		if rng.Intn(2) == 0 {
			z = "" // any zone
		}
		var box *geo.BBox
		if rng.Intn(2) == 0 {
			b := geo.NewBBox(point(), point())
			box = &b
		}
		var want []int64
		for _, id := range sel {
			m, ok := model[id]
			if ok && (z == "" || m.Zone == z) && (box == nil || box.Contains(m.Location)) {
				want = append(want, id)
			}
		}
		if got := c.Filter(slices.Clone(sel), z, box); !slices.Equal(got, want) {
			fail("Filter", got, want)
		}
	}
}
