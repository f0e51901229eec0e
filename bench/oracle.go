package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// cell is one result cell in transport-neutral form. Integers (bucket
// starts, meter ids, counts) are exact in a float64 at this scale.
type cell struct {
	Null bool
	Num  bool
	F    float64
	S    string
}

func numCell(f float64) cell { return cell{Num: true, F: f} }

// textCell classifies a text-protocol cell: anything that parses as a
// number is one (zone names never do).
func textCell(s *string) cell {
	if s == nil {
		return cell{Null: true}
	}
	if f, err := strconv.ParseFloat(*s, 64); err == nil {
		return numCell(f)
	}
	return cell{S: *s}
}

// oracleTol is the relative tolerance on floating-point cells: the
// oracle sums in plain meter-then-time order, the executor per meter and
// then across meters, so the last bits may differ.
const oracleTol = 1e-9

// truncBucket is the oracle's own calendar arithmetic: UTC, weeks start
// on Monday, months on the 1st.
func truncBucket(gran string, ts int64) int64 {
	switch gran {
	case "hourly":
		return ts - ts%hourS
	case "daily":
		return ts - ts%dayS
	case "weekly":
		day := ts / dayS
		weekday := (day + 3) % 7 // 1970-01-01 was a Thursday; Monday = 0
		return (day - weekday) * dayS
	case "monthly":
		t := time.Unix(ts, 0).UTC()
		return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC).Unix()
	}
	panic("bench: oracle has no granularity " + gran)
}

type groupKey struct {
	bucket int64
	meter  int64
	zone   string
}

type groupAgg struct {
	sum, min, max float64
	count, rows   int64
}

// evaluate answers s by brute force over the generated readings: one
// pass per selected meter, every sample compared against the window. It
// shares no code with the store, the planner or the executor.
func (w *world) evaluate(s *stmt) [][]cell {
	groups := map[groupKey]*groupAgg{}
	for _, id := range s.Sel.IDs {
		ci := w.byID[id]
		zone := string(w.ds.Customers[ci].Meter.Zone)
		for _, smp := range w.ds.Readings[ci] {
			if smp.TS < s.From || smp.TS >= s.To {
				continue
			}
			var k groupKey
			if s.Bucket != "" {
				k.bucket = truncBucket(s.Bucket, smp.TS)
			}
			if s.ByMeter {
				k.meter = id
			}
			if s.ByZone {
				k.zone = zone
			}
			g := groups[k]
			if g == nil {
				g = &groupAgg{min: math.Inf(1), max: math.Inf(-1)}
				groups[k] = g
			}
			g.rows++
			if v := smp.Value; !math.IsNaN(v) {
				g.sum += v
				g.count++
				g.min = math.Min(g.min, v)
				g.max = math.Max(g.max, v)
			}
		}
	}
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		if a.meter != b.meter {
			return a.meter < b.meter
		}
		return a.zone < b.zone
	})
	rows := make([][]cell, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		var row []cell
		if s.Bucket != "" {
			row = append(row, numCell(float64(k.bucket)))
		}
		if s.ByMeter {
			row = append(row, numCell(float64(k.meter)))
		}
		if s.ByZone {
			row = append(row, cell{S: k.zone})
		}
		for _, a := range s.Aggs {
			switch {
			case a == "count":
				row = append(row, numCell(float64(g.rows)))
			case a == "sum":
				row = append(row, numCell(g.sum))
			case g.count == 0: // only NaN readings: the other aggregates are NULL
				row = append(row, cell{Null: true})
			case a == "mean":
				row = append(row, numCell(g.sum/float64(g.count)))
			case a == "min":
				row = append(row, numCell(g.min))
			case a == "max":
				row = append(row, numCell(g.max))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// sameRows compares two result sets cell by cell. tol is the relative
// tolerance on numbers; 0 demands bit equality (HTTP against wire).
func sameRows(got, want [][]cell, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Errorf("row %d: %d cells, want %d", r, len(got[r]), len(want[r]))
		}
		for c := range want[r] {
			g, w := got[r][c], want[r][c]
			ok := g.Null == w.Null && g.Num == w.Num && g.S == w.S
			if ok && g.Num {
				d := math.Abs(g.F - w.F)
				ok = d <= tol*math.Max(math.Abs(g.F), math.Abs(w.F))
			}
			if !ok {
				return fmt.Errorf("row %d col %d: got %+v, want %+v", r, c, g, w)
			}
		}
	}
	return nil
}
