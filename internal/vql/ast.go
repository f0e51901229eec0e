package vql

import (
	"fmt"
	"strings"

	"vap/internal/query"
)

// Query is the parsed form of one VQL statement, before type checking and
// lowering. Field order mirrors the grammar.
type Query struct {
	Explain bool
	Select  []SelectItem
	Where   []Pred
	GroupBy []KeyExpr
	OrderBy []OrderTerm
	Limit   int // -1 when absent
}

// SelectItem is one output column: an aggregate or a group-key reference,
// optionally aliased.
type SelectItem struct {
	Expr Expr
	As   string
	Pos  Pos
}

// Name returns the column's output name: the alias when present, the
// canonical expression text otherwise.
func (s SelectItem) Name() string {
	if s.As != "" {
		return s.As
	}
	return s.Expr.String()
}

// Expr is a select-list expression.
type Expr interface {
	fmt.Stringer
	exprPos() Pos
}

// AggFn names a supported aggregate function.
type AggFn string

// Supported aggregate functions. AggCount (count(*)) counts every row,
// NaN readings included; AggCountValue (count(value)) counts only finite
// samples; the others fold sample values.
const (
	AggSum        AggFn = "sum"
	AggMean       AggFn = "mean"
	AggMin        AggFn = "min"
	AggMax        AggFn = "max"
	AggCount      AggFn = "count"
	AggCountValue AggFn = "count_value"
)

// AggExpr is an aggregate call: sum(value), mean(value), min(value),
// max(value), count(*), count(value).
type AggExpr struct {
	Fn  AggFn
	Pos Pos
}

func (a AggExpr) String() string {
	switch a.Fn {
	case AggCount:
		return "count(*)"
	case AggCountValue:
		return "count(value)"
	}
	return string(a.Fn) + "(value)"
}
func (a AggExpr) exprPos() Pos { return a.Pos }

// KeyKind names a grouping dimension.
type KeyKind string

// Grouping dimensions.
const (
	KeyBucket KeyKind = "bucket" // time bucket at a granularity
	KeyMeter  KeyKind = "meter"  // per-meter rows
	KeyZone   KeyKind = "zone"   // per-zone rows
)

// KeyExpr is a group key: bucket(<granularity>), meter, or zone. It can
// appear both in GROUP BY and in the select list (where it must also be
// grouped on).
type KeyExpr struct {
	Kind KeyKind
	Gran query.Granularity // set for KeyBucket
	Pos  Pos
}

func (k KeyExpr) String() string {
	if k.Kind == KeyBucket {
		return fmt.Sprintf("bucket(%s)", k.Gran)
	}
	return string(k.Kind)
}
func (k KeyExpr) exprPos() Pos { return k.Pos }

// Pred is a WHERE conjunct. All predicate forms lower into the store's
// pushdown primitives (query.Selection); there is no post-filter.
type Pred interface {
	fmt.Stringer
	predPos() Pos
}

// BBoxPred is bbox(minLon, minLat, maxLon, maxLat).
type BBoxPred struct {
	MinLon, MinLat, MaxLon, MaxLat float64
	Pos                            Pos
}

func (p BBoxPred) String() string {
	return fmt.Sprintf("bbox(%g, %g, %g, %g)", p.MinLon, p.MinLat, p.MaxLon, p.MaxLat)
}
func (p BBoxPred) predPos() Pos { return p.Pos }

// ZonePred is zone = '<zone>'.
type ZonePred struct {
	Zone string
	Pos  Pos
}

func (p ZonePred) String() string { return fmt.Sprintf("zone = '%s'", p.Zone) }
func (p ZonePred) predPos() Pos   { return p.Pos }

// MeterPred is meter = N or meter IN (a, b, c).
type MeterPred struct {
	IDs []int64
	Pos Pos
}

func (p MeterPred) String() string {
	if len(p.IDs) == 1 {
		return fmt.Sprintf("meter = %d", p.IDs[0])
	}
	parts := make([]string, len(p.IDs))
	for i, id := range p.IDs {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return "meter in (" + strings.Join(parts, ", ") + ")"
}
func (p MeterPred) predPos() Pos { return p.Pos }

// TimePred is one time comparison, already normalized to half-open window
// contributions: Op is ">=" (window start) or "<" (window end).
// time BETWEEN a AND b parses into two TimePreds.
type TimePred struct {
	Op    string // ">=" or "<"
	Value int64  // Unix seconds
	Pos   Pos
}

func (p TimePred) String() string { return fmt.Sprintf("time %s %d", p.Op, p.Value) }
func (p TimePred) predPos() Pos   { return p.Pos }

// OrderTerm is one ORDER BY entry. Exactly one of Ordinal (1-based) or Ref
// (alias or canonical expression text) identifies the column.
type OrderTerm struct {
	Ref     string
	Ordinal int // 0 when Ref is used
	Desc    bool
	Pos     Pos
}
