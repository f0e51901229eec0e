package vql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// timeLayouts are the accepted date/time string layouts, tried in order.
// Layouts without an explicit offset are interpreted as UTC, matching the
// store's Unix-seconds convention and the query layer's UTC calendar
// bucketing.
var timeLayouts = []string{
	time.RFC3339,
	"2006-01-02T15:04:05",
	"2006-01-02 15:04:05",
	"2006-01-02 15:04",
	"2006-01-02",
}

// ParseTime parses a time literal into Unix seconds: either a plain
// integer (Unix seconds, possibly negative) or a date/time string in one
// of the accepted layouts. It is the single time-input validator shared by
// the VQL time-predicate lowering and the HTTP layer's from/to parameters.
func ParseTime(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty time literal")
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return v, nil
	}
	for _, layout := range timeLayouts {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return t.Unix(), nil
		}
	}
	return 0, fmt.Errorf("bad time %q (want Unix seconds or e.g. '2017-06-01', '2017-06-01 08:00', RFC3339)", s)
}

// ValidBBox validates the four bbox coordinates: finite, in lon/lat range,
// and min <= max on both axes. Shared by the VQL bbox predicate and the
// HTTP layer's bbox parameter so both surfaces reject the same inputs.
func ValidBBox(minLon, minLat, maxLon, maxLat float64) error {
	for _, v := range []float64{minLon, minLat, maxLon, maxLat} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bbox coordinates must be finite numbers")
		}
	}
	if minLon < -180 || maxLon > 180 || minLat < -90 || maxLat > 90 {
		return fmt.Errorf("bbox out of range: longitudes in [-180,180], latitudes in [-90,90]")
	}
	if minLon > maxLon || minLat > maxLat {
		return fmt.Errorf("bbox wants minLon <= maxLon and minLat <= maxLat")
	}
	return nil
}
