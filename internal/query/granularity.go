// Package query implements VAP's logic-layer query engine over the store:
// spatial x temporal x intensity predicates, re-aggregation to the paper's
// seven temporal granularities (hourly, every four hours, daily, weekly,
// monthly, quarterly, yearly — demo scenario S2), and quantile-based
// customer group selection (S2's 30%..90% intensity sweep).
package query

import (
	"fmt"
	"time"
)

// Granularity is a temporal bucketing unit.
type Granularity string

// The granularities the paper's S2 scenario sweeps over.
const (
	GranHourly    Granularity = "hourly"
	Gran4Hourly   Granularity = "4hourly"
	GranDaily     Granularity = "daily"
	GranWeekly    Granularity = "weekly"
	GranMonthly   Granularity = "monthly"
	GranQuarterly Granularity = "quarterly"
	GranYearly    Granularity = "yearly"
)

// AllGranularities lists the supported units in increasing coarseness.
var AllGranularities = []Granularity{
	GranHourly, Gran4Hourly, GranDaily, GranWeekly,
	GranMonthly, GranQuarterly, GranYearly,
}

// ParseGranularity validates a user-supplied granularity string.
func ParseGranularity(s string) (Granularity, error) {
	for _, g := range AllGranularities {
		if string(g) == s {
			return g, nil
		}
	}
	return "", fmt.Errorf("query: unknown granularity %q", s)
}

// ApproxSeconds returns a representative bucket length in seconds, used for
// sensitivity normalization. Calendar-aware truncation is used for actual
// bucketing; this is only a scale.
func (g Granularity) ApproxSeconds() int64 {
	switch g {
	case GranHourly:
		return 3600
	case Gran4Hourly:
		return 4 * 3600
	case GranDaily:
		return 24 * 3600
	case GranWeekly:
		return 7 * 24 * 3600
	case GranMonthly:
		return 30 * 24 * 3600
	case GranQuarterly:
		return 91 * 24 * 3600
	case GranYearly:
		return 365 * 24 * 3600
	default:
		return 3600
	}
}

// Truncate returns the bucket start containing ts (Unix seconds, UTC
// calendar for calendar units).
func (g Granularity) Truncate(ts int64) int64 {
	switch g {
	case GranHourly:
		return ts - mod(ts, 3600)
	case Gran4Hourly:
		return ts - mod(ts, 4*3600)
	case GranDaily:
		return ts - mod(ts, 24*3600)
	case GranWeekly:
		// ISO-ish week starting Monday 00:00 UTC. Unix epoch (1970-01-01)
		// was a Thursday; shift by 3 days so weeks begin on Monday.
		const day = 24 * 3600
		shifted := ts + 3*day
		return shifted - mod(shifted, 7*day) - 3*day
	case GranMonthly:
		t := time.Unix(ts, 0).UTC()
		return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC).Unix()
	case GranQuarterly:
		t := time.Unix(ts, 0).UTC()
		q := (int(t.Month()) - 1) / 3
		return time.Date(t.Year(), time.Month(q*3+1), 1, 0, 0, 0, 0, time.UTC).Unix()
	case GranYearly:
		t := time.Unix(ts, 0).UTC()
		return time.Date(t.Year(), 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	default:
		return ts
	}
}

// Next returns the start of the bucket following the one containing ts.
func (g Granularity) Next(ts int64) int64 {
	start := g.Truncate(ts)
	switch g {
	case GranMonthly:
		t := time.Unix(start, 0).UTC()
		return t.AddDate(0, 1, 0).Unix()
	case GranQuarterly:
		t := time.Unix(start, 0).UTC()
		return t.AddDate(0, 3, 0).Unix()
	case GranYearly:
		t := time.Unix(start, 0).UTC()
		return t.AddDate(1, 0, 0).Unix()
	default:
		return start + g.ApproxSeconds()
	}
}

func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// AggFunc selects how samples within a bucket are combined.
type AggFunc string

// Supported aggregates.
const (
	AggSum  AggFunc = "sum"
	AggMean AggFunc = "mean"
	AggMax  AggFunc = "max"
	AggMin  AggFunc = "min"
)

// Bucket is one aggregated interval.
type Bucket struct {
	Start int64   `json:"start"` // bucket start (Unix seconds)
	Value float64 `json:"value"`
	Count int     `json:"count"`
}

// Valid reports whether fn names a supported aggregate.
func (fn AggFunc) Valid() error {
	switch fn {
	case AggSum, AggMean, AggMax, AggMin:
		return nil
	}
	return fmt.Errorf("%w: unknown aggregate %q", ErrInput, fn)
}
