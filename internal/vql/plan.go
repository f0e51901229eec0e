package vql

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"vap/internal/query"
	"vap/internal/store"
)

// ColType is the transport-independent type of one output column's
// cells. Transports map it onto their own encodings (JSON numbers, MySQL
// text-protocol column definitions) without sniffing row values.
type ColType string

const (
	// TypeInt64 cells are int64: meter ids and count aggregates.
	TypeInt64 ColType = "int64"
	// TypeTime cells are int64 Unix seconds: bucket() group keys. Kept
	// distinct from TypeInt64 so a transport may render timestamps
	// natively; the canonical cell value is still the integer.
	TypeTime ColType = "time"
	// TypeFloat64 cells are float64 or nil (empty-group / all-NaN
	// aggregates): sum, mean, min, max.
	TypeFloat64 ColType = "float64"
	// TypeString cells are strings: zone group keys.
	TypeString ColType = "string"
)

// ColumnTypes returns the plan's output column types, aligned with
// Result.Columns.
func (p *Plan) ColumnTypes() []ColType {
	types := make([]ColType, len(p.Cols))
	for i, c := range p.Cols {
		switch {
		case c.IsKey:
			switch p.Keys[c.Key].Kind {
			case KeyBucket:
				types[i] = TypeTime
			case KeyMeter:
				types[i] = TypeInt64
			default:
				types[i] = TypeString
			}
		case c.Agg == AggCount || c.Agg == AggCountValue:
			types[i] = TypeInt64
		default:
			types[i] = TypeFloat64
		}
	}
	return types
}

// Column is one typed output column of a plan.
type Column struct {
	Name  string // alias or canonical expression text
	IsKey bool
	Key   int   // index into Plan.Keys when IsKey
	Agg   AggFn // aggregate when !IsKey
	Expr  Expr
}

// orderSpec is a resolved ORDER BY term: a column index plus direction.
type orderSpec struct {
	col  int
	desc bool
}

// Plan is the typed logical plan a Query compiles to. Every WHERE
// predicate has been lowered into Sel — the store-pushdown selection the
// engine resolves through the catalog's spatial index and the per-block
// min/max-pruned iterators — so execution never post-filters rows.
type Plan struct {
	Explain bool
	Cols    []Column
	Sel     query.Selection
	Keys    []KeyExpr // GROUP BY keys, in declaration order
	Order   []orderSpec
	Limit   int // -1 = none

	// The scan window is tracked with explicit presence flags rather than
	// Selection's 0-as-unset sentinel: a bound that normalizes to exactly
	// Unix epoch 0 (time < '1970-01-01', time >= 0) is a real constraint,
	// not an absent one. Sel.From/Sel.To mirror the values for display.
	From, To       int64
	HasFrom, HasTo bool

	hasBucket bool
	bucketIdx int // index into Keys
	needZone  bool
	canonical string
}

// Compile type-checks q and lowers it to a Plan. Errors carry source
// positions (*Error).
func Compile(q *Query) (*Plan, error) {
	p := &Plan{Explain: q.Explain, Limit: q.Limit, bucketIdx: -1}
	if err := p.lowerPredicates(q); err != nil {
		return nil, err
	}
	if err := p.checkGroupKeys(q); err != nil {
		return nil, err
	}
	if err := p.buildColumns(q); err != nil {
		return nil, err
	}
	if err := p.resolveOrder(q); err != nil {
		return nil, err
	}
	p.canonical = p.buildCanonical()
	return p, nil
}

// lowerPredicates folds the WHERE conjuncts into one query.Selection.
func (p *Plan) lowerPredicates(q *Query) error {
	var fromPos Pos
	for _, pred := range q.Where {
		switch pr := pred.(type) {
		case BBoxPred:
			if p.Sel.BBox != nil {
				return errAt(pr.Pos, "duplicate bbox predicate")
			}
			box := geoBox(pr)
			p.Sel.BBox = &box
		case ZonePred:
			if p.Sel.Zone != "" {
				return errAt(pr.Pos, "duplicate zone predicate")
			}
			p.Sel.Zone = store.ZoneType(pr.Zone)
		case MeterPred:
			if p.Sel.MeterIDs != nil {
				return errAt(pr.Pos, "duplicate meter predicate")
			}
			// Sort and deduplicate: IN (1, 1) is IN (1), in the plan's
			// canonical text and fingerprint as in the scan.
			ids := slices.Clone(pr.IDs)
			slices.Sort(ids)
			p.Sel.MeterIDs = slices.Compact(ids)
		case TimePred:
			p.applyTime(pr)
			if pr.Op == ">=" {
				fromPos = pr.Pos
			}
		case timeRange:
			p.applyTime(pr.from)
			p.applyTime(pr.to)
			fromPos = pr.Pos
		default:
			return errAt(pred.predPos(), "unsupported predicate %s", pred)
		}
	}
	if p.HasFrom && p.HasTo && p.To <= p.From {
		return errAt(fromPos, "empty time window [%d, %d)", p.From, p.To)
	}
	p.Sel.From, p.Sel.To = p.From, p.To
	return nil
}

// applyTime tightens the plan's half-open window with one normalized
// comparison: conjunction means start bounds take the max, end bounds the
// min.
func (p *Plan) applyTime(tp TimePred) {
	if tp.Op == ">=" {
		if !p.HasFrom || tp.Value > p.From {
			p.From = tp.Value
		}
		p.HasFrom = true
	} else {
		if !p.HasTo || tp.Value < p.To {
			p.To = tp.Value
		}
		p.HasTo = true
	}
}

func (p *Plan) checkGroupKeys(q *Query) error {
	for _, k := range q.GroupBy {
		for _, prev := range p.Keys {
			if prev.Kind == k.Kind {
				return errAt(k.Pos, "duplicate group key %s", k.Kind)
			}
		}
		if k.Kind == KeyBucket {
			p.hasBucket = true
			p.bucketIdx = len(p.Keys)
		}
		if k.Kind == KeyZone {
			p.needZone = true
		}
		p.Keys = append(p.Keys, k)
	}
	return nil
}

func (p *Plan) buildColumns(q *Query) error {
	seen := map[string]Pos{}
	for _, item := range q.Select {
		name := item.Name()
		if prev, dup := seen[strings.ToLower(name)]; dup {
			return errAt(item.Pos, "duplicate output column %q (first at %s); use AS to rename", name, prev)
		}
		seen[strings.ToLower(name)] = item.Pos
		col := Column{Name: name, Expr: item.Expr}
		switch e := item.Expr.(type) {
		case AggExpr:
			col.Agg = e.Fn
		case KeyExpr:
			col.IsKey = true
			col.Key = -1
			for i, k := range p.Keys {
				if k.Kind == e.Kind && (e.Kind != KeyBucket || k.Gran == e.Gran) {
					col.Key = i
					break
				}
			}
			if col.Key < 0 {
				return errAt(e.Pos, "%s is selected but not grouped on; add it to GROUP BY", e)
			}
		default:
			return errAt(item.Pos, "unsupported select expression %s", item.Expr)
		}
		p.Cols = append(p.Cols, col)
	}
	return nil
}

func (p *Plan) resolveOrder(q *Query) error {
	for _, term := range q.OrderBy {
		idx := -1
		if term.Ordinal > 0 {
			if term.Ordinal > len(p.Cols) {
				return errAt(term.Pos, "ORDER BY ordinal %d out of range (query has %d columns)", term.Ordinal, len(p.Cols))
			}
			idx = term.Ordinal - 1
		} else {
			for i, c := range p.Cols {
				if strings.EqualFold(c.Name, term.Ref) || strings.EqualFold(c.Expr.String(), term.Ref) ||
					strings.EqualFold(normalizeRef(c.Expr.String()), normalizeRef(term.Ref)) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return errAt(term.Pos, "ORDER BY %q does not match any output column", term.Ref)
			}
		}
		p.Order = append(p.Order, orderSpec{col: idx, desc: term.Desc})
	}
	return nil
}

// normalizeRef strips spaces so "mean( value )" matches "mean(value)".
func normalizeRef(s string) string { return strings.ReplaceAll(strings.ToLower(s), " ", "") }

// Fingerprint hashes the canonical plan text: two queries that compile to
// the same logical plan (modulo formatting, aliases kept) share one
// fingerprint, the first half of the analyzer's memoization key (the
// second being the selection's data-version fingerprint).
func (p *Plan) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.canonical))
	return h.Sum64()
}

func (p *Plan) buildCanonical() string {
	var sb strings.Builder
	sb.WriteString("select ")
	for i, c := range p.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Expr.String())
		if c.Name != c.Expr.String() {
			fmt.Fprintf(&sb, " as %s", c.Name)
		}
	}
	sb.WriteString(" from meters")
	fmt.Fprintf(&sb, " where %s", p.predicatesCanonical())
	if len(p.Keys) > 0 {
		sb.WriteString(" group by ")
		for i, k := range p.Keys {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k.String())
		}
	}
	if len(p.Order) > 0 {
		sb.WriteString(" order by ")
		for i, o := range p.Order {
			if i > 0 {
				sb.WriteString(", ")
			}
			dir := "asc"
			if o.desc {
				dir = "desc"
			}
			fmt.Fprintf(&sb, "%d %s", o.col+1, dir)
		}
	}
	if p.Limit >= 0 {
		fmt.Fprintf(&sb, " limit %d", p.Limit)
	}
	return sb.String()
}

// predicatesCanonical renders the lowered predicates deterministically
// (meter IDs are already sorted and deduplicated by the lowering; window
// bounds render from the presence flags, so an explicit epoch-0 bound is
// distinguishable from an absent one).
func (p *Plan) predicatesCanonical() string {
	var parts []string
	if p.Sel.BBox != nil {
		parts = append(parts, fmt.Sprintf("bbox(%g, %g, %g, %g)",
			p.Sel.BBox.Min.Lon, p.Sel.BBox.Min.Lat, p.Sel.BBox.Max.Lon, p.Sel.BBox.Max.Lat))
	}
	if p.Sel.Zone != "" {
		parts = append(parts, fmt.Sprintf("zone = '%s'", p.Sel.Zone))
	}
	if p.Sel.MeterIDs != nil {
		ids := make([]string, len(p.Sel.MeterIDs))
		for i, id := range p.Sel.MeterIDs {
			ids[i] = fmt.Sprintf("%d", id)
		}
		parts = append(parts, "meter in ("+strings.Join(ids, ", ")+")")
	}
	if p.HasFrom || p.HasTo {
		parts = append(parts, fmt.Sprintf("time in [%s, %s)", p.boundStr(true), p.boundStr(false)))
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " and ")
}

// boundStr renders one window bound, with absent bounds shown as the data
// extent.
func (p *Plan) boundStr(start bool) string {
	if start {
		if !p.HasFrom {
			return "extent"
		}
		return fmt.Sprintf("%d", p.From)
	}
	if !p.HasTo {
		return "extent"
	}
	return fmt.Sprintf("%d", p.To)
}

// Granularity returns the bucket key's granularity, or "" when the plan
// has no bucket key.
func (p *Plan) Granularity() query.Granularity {
	if p.hasBucket {
		return p.Keys[p.bucketIdx].Gran
	}
	return ""
}
