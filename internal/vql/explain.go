package vql

import (
	"errors"
	"fmt"
	"strings"

	"vap/internal/query"
)

// ExplainString renders the plan tree with pushdown annotations. The tree
// reads bottom-up: the scan node lists every predicate lowered into the
// store (and how it is served), the aggregate node the grouping shape, and
// the top nodes ordering and limiting. eng supplies runtime context — the
// resolved meter set, its per-series statistics, and the cost model's
// choices; it may be nil for a purely static rendering.
func ExplainString(p *Plan, eng *query.Engine) string {
	if eng == nil {
		return explainText(p, nil, false)
	}
	var ids []int64
	if resolved, err := ResolveScanMeters(eng, p); err == nil {
		ids = resolved
	} else if !errors.Is(err, query.ErrNoMeters) {
		cost, _ := planScan(p, nil, 0, 0, eng.Workers(), eng.Store().RollupResolutions())
		return explainText(p, &cost, true)
	}
	from, to, ok := p.ResolveWindow(eng.Store())
	if !ok {
		from, to = 0, 0
	}
	cost, _ := planScan(p, eng.Store().SeriesStats(ids), from, to, eng.Workers(), eng.Store().RollupResolutions())
	return explainText(p, &cost, true)
}

// explainText is the rendering body; Execute calls it directly with the
// scan cost it already planned so the hot path never resolves twice.
func explainText(p *Plan, cost *ScanCost, runtime bool) string {
	var sb strings.Builder
	sb.WriteString("VQL plan\n")
	depth := 0
	node := func(text string) {
		sb.WriteString(strings.Repeat("   ", depth))
		sb.WriteString("└─ ")
		sb.WriteString(text)
		sb.WriteByte('\n')
		depth++
	}
	leaf := func(last bool, text string) {
		sb.WriteString(strings.Repeat("   ", depth))
		if last {
			sb.WriteString("└─ ")
		} else {
			sb.WriteString("├─ ")
		}
		sb.WriteString(text)
		sb.WriteByte('\n')
	}

	if p.Limit >= 0 {
		node(fmt.Sprintf("Limit: %d", p.Limit))
	}
	if len(p.Order) > 0 {
		terms := make([]string, len(p.Order))
		for i, o := range p.Order {
			dir := "asc"
			if o.desc {
				dir = "desc"
			}
			terms[i] = fmt.Sprintf("%s %s", p.Cols[o.col].Name, dir)
		}
		node("Sort: " + strings.Join(terms, ", "))
	}
	if len(p.Keys) > 0 {
		keys := make([]string, len(p.Keys))
		for i, k := range p.Keys {
			keys[i] = k.String()
		}
		node(fmt.Sprintf("GroupAggregate: keys=[%s] aggs=[%s]",
			strings.Join(keys, ", "), strings.Join(p.aggList(), ", ")))
	} else {
		node(fmt.Sprintf("Aggregate: [%s] (single group)", strings.Join(p.aggList(), ", ")))
	}
	node("Scan: meters (vectorized batch decode)")

	var details []string
	if p.Sel.BBox != nil {
		details = append(details, fmt.Sprintf("pushdown bbox(%g, %g, %g, %g) -> catalog spatial index",
			p.Sel.BBox.Min.Lon, p.Sel.BBox.Min.Lat, p.Sel.BBox.Max.Lon, p.Sel.BBox.Max.Lat))
	}
	if p.Sel.Zone != "" {
		details = append(details, fmt.Sprintf("pushdown zone = '%s' -> catalog filter", p.Sel.Zone))
	}
	if p.Sel.MeterIDs != nil {
		details = append(details, fmt.Sprintf("pushdown meter set (%d ids) -> direct lookup", len(p.Sel.MeterIDs)))
	}
	if p.HasFrom || p.HasTo {
		details = append(details, fmt.Sprintf("pushdown time [%s, %s) -> block min/max pruned iterator",
			p.boundStr(true), p.boundStr(false)))
	}
	if len(details) == 0 {
		details = append(details, "full scan (no predicates; iterator still streams block-by-block)")
	}
	if runtime && cost != nil {
		details = append(details, fmt.Sprintf("meters resolved: %d", cost.Meters))
		perMeter := int64(0)
		if cost.Meters > 0 {
			perMeter = cost.EstSamples / int64(cost.Meters)
		}
		details = append(details, fmt.Sprintf("cost: est %d samples (~%d/meter), %d blocks, %s compressed",
			cost.EstSamples, perMeter, cost.EstBlocks, humanBytes(cost.EstBytes)))
		details = append(details, "grouping: "+groupingStr(p, cost))
		details = append(details, "tier: "+tierStr(p, cost))
		details = append(details, fmt.Sprintf("fanout: %d workers via internal/exec, %d chunks, cancellable",
			cost.Workers, cost.Chunks))
	}
	for i, d := range details {
		leaf(i == len(details)-1, d)
	}
	return sb.String()
}

// tierStr renders the planner's tier decision: which rollup tier serves
// which buckets (and its estimated cost), or why the scan reads raw blocks.
func tierStr(p *Plan, c *ScanCost) string {
	if c.TierRes != 0 {
		return fmt.Sprintf("%ds rollup serves %s buckets: est %d tier buckets + %d raw edge samples",
			c.TierRes, p.Granularity(), c.TierBuckets, c.TierEdges)
	}
	reason := c.TierReason
	if reason == "" {
		reason = "n/a"
	}
	return "raw scan (" + reason + ")"
}

// groupingStr renders the planner's grouping layout, or why it refuses the
// scan.
func groupingStr(p *Plan, c *ScanCost) string {
	switch {
	case c.Refused != nil:
		return "refused (" + c.Refused.Error() + ")"
	case p.hasBucket:
		return fmt.Sprintf("dense bucket array (%d buckets, boundaries precomputed)", c.Buckets)
	default:
		return "single group per key (no bucket dimension)"
	}
}

// humanBytes renders a byte count with a binary-unit suffix.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// aggList returns the distinct aggregate expressions of the select list in
// column order.
func (p *Plan) aggList() []string {
	var out []string
	for _, c := range p.Cols {
		if !c.IsKey {
			out = append(out, c.Expr.String())
		}
	}
	if len(out) == 0 {
		out = append(out, "(keys only)")
	}
	return out
}
