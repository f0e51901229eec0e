package api

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"vap/internal/core"
	"vap/internal/geo"
	"vap/internal/query"
	"vap/internal/store"
	"vap/internal/vql"
)

// params reads one request's query string in one pass. Each method names a
// parameter, its default and its range, and the first bad value is kept in
// err, so a handler reads every parameter its route takes, then checks
// once. A value is bad when it has the wrong kind, is a non-finite float or
// lies outside its range; an absent (or empty) parameter is its default.
type params struct {
	q   url.Values
	err error
}

func newParams(r *http.Request) *params { return &params{q: r.URL.Query()} }

// fail keeps err, if any, unless a value was bad already.
func (p *params) fail(key string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("api: bad %s parameter: %w", key, err)
	}
}

// need keeps msg as the error unless ok or a value was bad already.
func (p *params) need(ok bool, msg string) {
	if !ok && p.err == nil {
		p.err = errors.New("api: " + msg)
	}
}

// answered writes the 400 for the first bad value, if any, and reports
// whether it did.
func (p *params) answered(w http.ResponseWriter) bool {
	if p.err != nil {
		writeErr(w, http.StatusBadRequest, p.err)
	}
	return p.err != nil
}

// get parses key's value, or returns def when it is absent.
func get[T any](p *params, key string, def T, parse func(string) (T, error)) T {
	v := p.q.Get(key)
	if v == "" {
		return def
	}
	x, err := parse(v)
	p.fail(key, err)
	return x
}

// int reads an integer no smaller than lo.
func (p *params) int(key string, def, lo int64) int64 {
	return get(p, key, def, func(v string) (int64, error) {
		n, err := strconv.ParseInt(v, 10, 64)
		if err == nil && n < lo {
			err = fmt.Errorf("%d is below %d", n, lo)
		}
		return n, err
	})
}

// float reads a finite number in [lo, hi].
func (p *params) float(key string, def, lo, hi float64) float64 {
	return get(p, key, def, func(v string) (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err == nil && (math.IsNaN(f) || math.IsInf(f, 0) || f < lo || f > hi) {
			err = fmt.Errorf("%v is not a finite number in [%v, %v]", f, lo, hi)
		}
		return f, err
	})
}

// str reads a string; given choices, it must be one of them. A type with
// its own set of values (a method, a kernel) is checked by its package.
func (p *params) str(key, def string, choices ...string) string {
	return get(p, key, def, func(v string) (string, error) {
		if len(choices) > 0 && !slices.Contains(choices, v) {
			return v, fmt.Errorf("%q is not one of %q", v, choices)
		}
		return v, nil
	})
}

// time reads a time literal, Unix seconds or a date/time string, through
// the validator VQL's time predicates use. Absent is 0, unconstrained. An
// explicit Unix epoch 0 is refused rather than read as query.Selection's
// 0-as-unset sentinel, which would drop the bound.
func (p *params) time(key string) int64 {
	return get(p, key, 0, func(v string) (int64, error) {
		ts, err := vql.ParseTime(v)
		if err == nil && ts == 0 {
			err = errors.New("Unix epoch 0 is not representable; use 1, a negative bound, or omit the parameter")
		}
		return ts, err
	})
}

func (p *params) granularity(def query.Granularity) query.Granularity {
	return get(p, "granularity", def, query.ParseGranularity)
}

// anchors reads a flow map's t1 and t2, which take the literals from and
// to take; when required, both must be given.
func (p *params) anchors(required bool) (t1, t2 int64) {
	t1, t2 = p.time("t1"), p.time("t2")
	p.need(!required || t1 != 0 && t2 != 0, "t1 and t2 parameters required")
	return t1, t2
}

// selection reads bbox=minLon,minLat,maxLon,maxLat, zone, ids=1,2,3 and
// from/to.
func (p *params) selection() query.Selection {
	sel := query.Selection{
		BBox:     get(p, "bbox", nil, parseBBox),
		Zone:     store.ZoneType(p.q.Get("zone")),
		MeterIDs: get(p, "ids", nil, parseIDs),
		From:     p.time("from"),
		To:       p.time("to"),
	}
	if sel.From != 0 && sel.To != 0 && sel.To <= sel.From {
		p.fail("to", fmt.Errorf("empty time window [%d, %d)", sel.From, sel.To))
	}
	return sel
}

// parseBBox follows the VQL bbox predicate's rule (vql.ValidBBox), so a NaN
// or swapped-corner box cannot silently select nothing.
func parseBBox(v string) (*geo.BBox, error) {
	parts := strings.Split(v, ",")
	if len(parts) != 4 {
		return nil, errors.New("bbox wants 4 comma-separated numbers")
	}
	var c [4]float64
	for i, s := range parts {
		var err error
		if c[i], err = strconv.ParseFloat(strings.TrimSpace(s), 64); err != nil {
			return nil, fmt.Errorf("bad bbox component %q", s)
		}
	}
	if err := vql.ValidBBox(c[0], c[1], c[2], c[3]); err != nil {
		return nil, err
	}
	box := geo.NewBBox(geo.Point{Lon: c[0], Lat: c[1]}, geo.Point{Lon: c[2], Lat: c[3]})
	return &box, nil
}

func parseIDs(v string) ([]int64, error) {
	var ids []int64
	for _, s := range strings.Split(v, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad meter id %q", s)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// brush reads the brush corners bx0,by0,bx1,by1 (default the unit square)
// and orders each axis's pair, so a brush dragged backwards on either axis
// is the same rectangle. given reports whether any corner was sent.
func (p *params) brush() (b core.Brush, given bool) {
	inf := math.Inf(1)
	x0, y0 := p.float("bx0", 0, -inf, inf), p.float("by0", 0, -inf, inf)
	x1, y1 := p.float("bx1", 1, -inf, inf), p.float("by1", 1, -inf, inf)
	given = p.q.Get("bx0")+p.q.Get("by0")+p.q.Get("bx1")+p.q.Get("by1") != ""
	return core.Brush{MinX: min(x0, x1), MinY: min(y0, y1), MaxX: max(x0, x1), MaxY: max(y0, y1)}, given
}
