package vql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"vap/internal/query"
)

// Parse scans and parses one VQL statement. Errors carry the 1-based
// line/column of the offending token (*Error).
func Parse(src string) (*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []Token
	i    int
}

func (p *parser) cur() Token { return p.toks[p.i] }
func (p *parser) advance()   { p.i++ }

// isKw reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) isKw(kw string) bool {
	t := p.cur()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.advance()
		return true
	}
	return false
}

// expectKw consumes the keyword or fails.
func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		t := p.cur()
		return errAt(t.Pos, "expected %s, found %s", strings.ToUpper(kw), describe(t))
	}
	return nil
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind TokKind) (Token, error) {
	t := p.cur()
	if t.Kind != kind {
		return Token{}, errAt(t.Pos, "expected %s, found %s", kind, describe(t))
	}
	p.advance()
	return t, nil
}

func describe(t Token) string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokIdent, TokNumber, TokOp:
		return fmt.Sprintf("%q", t.Text)
	case TokString:
		return fmt.Sprintf("string '%s'", t.Text)
	default:
		return t.Kind.String()
	}
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	if p.acceptKw("explain") {
		q.Explain = true
	}
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if p.cur().Kind == TokComma {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	src := p.cur()
	if src.Kind != TokIdent || !strings.EqualFold(src.Text, "meters") {
		return nil, errAt(src.Pos, "unknown source %s; the only source is 'meters'", describe(src))
	}
	p.advance()
	if p.acceptKw("where") {
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if p.acceptKw("and") {
				continue
			}
			if p.isKw("or") {
				return nil, errAt(p.cur().Pos, "OR is not supported; WHERE is a conjunction of pushdown predicates")
			}
			break
		}
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseGroupKey()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, key)
			if p.cur().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			term, err := p.parseOrderTerm()
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, term)
			if p.cur().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
	}
	if p.acceptKw("limit") {
		t, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, errAt(t.Pos, "LIMIT wants a non-negative integer, found %q", t.Text)
		}
		q.Limit = n
	}
	if p.cur().Kind == TokSemicolon {
		p.advance()
	}
	if t := p.cur(); t.Kind != TokEOF {
		return nil, errAt(t.Pos, "unexpected %s after end of query", describe(t))
	}
	return q, nil
}

// parseOrderTerm parses one ORDER BY entry: a 1-based ordinal, an alias,
// or an expression like mean(value), each optionally followed by ASC/DESC.
func (p *parser) parseOrderTerm() (OrderTerm, error) {
	t := p.cur()
	term := OrderTerm{Pos: t.Pos}
	switch t.Kind {
	case TokNumber:
		n, err := strconv.Atoi(t.Text)
		if err != nil || n <= 0 {
			return OrderTerm{}, errAt(t.Pos, "ORDER BY ordinal wants a positive integer, found %q", t.Text)
		}
		term.Ordinal = n
		p.advance()
	case TokIdent:
		// Re-use the expression parser so "mean(value)" and "bucket(daily)"
		// order terms share the select-list syntax; a bare identifier that
		// is not an expression is an alias reference.
		name := strings.ToLower(t.Text)
		switch name {
		case "sum", "mean", "avg", "min", "max", "count", "bucket":
			expr, err := p.parseExpr()
			if err != nil {
				return OrderTerm{}, err
			}
			term.Ref = expr.String()
		default:
			term.Ref = t.Text
			p.advance()
		}
	default:
		return OrderTerm{}, errAt(t.Pos, "expected an ORDER BY column, found %s", describe(t))
	}
	if p.acceptKw("desc") {
		term.Desc = true
	} else {
		p.acceptKw("asc")
	}
	return term, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	expr, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: expr, Pos: expr.exprPos()}
	if p.acceptKw("as") {
		t, err := p.expect(TokIdent)
		if err != nil {
			return SelectItem{}, err
		}
		item.As = t.Text
	}
	return item, nil
}

func (p *parser) parseExpr() (Expr, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return nil, errAt(t.Pos, "expected an aggregate or group key, found %s", describe(t))
	}
	name := strings.ToLower(t.Text)
	switch name {
	case "sum", "mean", "avg", "min", "max", "count":
		p.advance()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		fn := AggFn(name)
		if name == "avg" {
			fn = AggMean
		}
		arg := p.cur()
		switch {
		case fn == AggCount && arg.Kind == TokStar:
			p.advance()
		case fn == AggCount && arg.Kind == TokIdent && strings.EqualFold(arg.Text, "value"):
			// count(value) counts only finite samples; count(*) counts
			// every row, NaN readings included.
			fn = AggCountValue
			p.advance()
		case fn != AggCount && arg.Kind == TokIdent && strings.EqualFold(arg.Text, "value"):
			p.advance()
		case fn == AggCount:
			return nil, errAt(arg.Pos, "count wants * or value, found %s", describe(arg))
		default:
			return nil, errAt(arg.Pos, "%s wants the column 'value', found %s", name, describe(arg))
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return AggExpr{Fn: fn, Pos: t.Pos}, nil
	case "bucket", "meter", "zone":
		return p.parseGroupKey()
	default:
		return nil, errAt(t.Pos, "unknown select expression %q (want sum/mean/min/max/count(value|*) or bucket(<granularity>)/meter/zone)", t.Text)
	}
}

func (p *parser) parseGroupKey() (KeyExpr, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return KeyExpr{}, errAt(t.Pos, "expected a group key, found %s", describe(t))
	}
	switch strings.ToLower(t.Text) {
	case "bucket":
		p.advance()
		if _, err := p.expect(TokLParen); err != nil {
			return KeyExpr{}, err
		}
		gt := p.cur()
		if gt.Kind != TokIdent && gt.Kind != TokString {
			return KeyExpr{}, errAt(gt.Pos, "bucket wants a granularity, found %s", describe(gt))
		}
		g, err := query.ParseGranularity(strings.ToLower(gt.Text))
		if err != nil {
			return KeyExpr{}, errAt(gt.Pos, "unknown granularity %q (want one of %v)", gt.Text, query.AllGranularities)
		}
		p.advance()
		if _, err := p.expect(TokRParen); err != nil {
			return KeyExpr{}, err
		}
		return KeyExpr{Kind: KeyBucket, Gran: g, Pos: t.Pos}, nil
	case "meter":
		p.advance()
		return KeyExpr{Kind: KeyMeter, Pos: t.Pos}, nil
	case "zone":
		p.advance()
		return KeyExpr{Kind: KeyZone, Pos: t.Pos}, nil
	default:
		return KeyExpr{}, errAt(t.Pos, "unknown group key %q (want bucket(<granularity>), meter, or zone)", t.Text)
	}
}

func (p *parser) parsePred() (Pred, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return nil, errAt(t.Pos, "expected a predicate, found %s", describe(t))
	}
	switch strings.ToLower(t.Text) {
	case "bbox":
		return p.parseBBox()
	case "zone":
		p.advance()
		op, err := p.expect(TokOp)
		if err != nil {
			return nil, err
		}
		if op.Text != "=" {
			return nil, errAt(op.Pos, "zone supports only '=', found %q", op.Text)
		}
		v := p.cur()
		if v.Kind != TokString && v.Kind != TokIdent {
			return nil, errAt(v.Pos, "zone wants a string, found %s", describe(v))
		}
		p.advance()
		return ZonePred{Zone: v.Text, Pos: t.Pos}, nil
	case "meter":
		return p.parseMeterPred()
	case "time":
		return p.parseTimePred()
	default:
		return nil, errAt(t.Pos, "unknown predicate %q (want bbox(...), zone = ..., meter = / IN ..., or time comparisons)", t.Text)
	}
}

func (p *parser) parseBBox() (Pred, error) {
	t := p.cur()
	p.advance()
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var vals [4]float64
	for i := 0; i < 4; i++ {
		if i > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		nt, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(nt.Text, 64)
		if err != nil {
			return nil, errAt(nt.Pos, "bad bbox coordinate %q", nt.Text)
		}
		vals[i] = f
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	pred := BBoxPred{MinLon: vals[0], MinLat: vals[1], MaxLon: vals[2], MaxLat: vals[3], Pos: t.Pos}
	if err := ValidBBox(vals[0], vals[1], vals[2], vals[3]); err != nil {
		return nil, errAt(t.Pos, "%v", err)
	}
	return pred, nil
}

func (p *parser) parseMeterPred() (Pred, error) {
	t := p.cur()
	p.advance()
	switch {
	case p.cur().Kind == TokOp && p.cur().Text == "=":
		p.advance()
		nt, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		id, err := strconv.ParseInt(nt.Text, 10, 64)
		if err != nil {
			return nil, errAt(nt.Pos, "bad meter id %q", nt.Text)
		}
		return MeterPred{IDs: []int64{id}, Pos: t.Pos}, nil
	case p.isKw("in"):
		p.advance()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		var ids []int64
		for {
			nt, err := p.expect(TokNumber)
			if err != nil {
				return nil, err
			}
			id, err := strconv.ParseInt(nt.Text, 10, 64)
			if err != nil {
				return nil, errAt(nt.Pos, "bad meter id %q", nt.Text)
			}
			ids = append(ids, id)
			if p.cur().Kind == TokComma {
				p.advance()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return MeterPred{IDs: ids, Pos: t.Pos}, nil
	default:
		return nil, errAt(p.cur().Pos, "meter supports '= <id>' or 'IN (<ids>)', found %s", describe(p.cur()))
	}
}

// parseTimePred normalizes every comparison to half-open window
// contributions: ">= v" starts the window, "< v" ends it; "> v" becomes
// ">= v+1" and "<= v" becomes "< v+1" (timestamps are whole seconds).
// BETWEEN a AND b is inclusive on both ends, per SQL.
func (p *parser) parseTimePred() (Pred, error) {
	t := p.cur()
	p.advance()
	if p.isKw("between") {
		p.advance()
		lo, err := p.parseTimeLit()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseTimeLit()
		if err != nil {
			return nil, err
		}
		hi1, err := incTimeBound(hi, t.Pos)
		if err != nil {
			return nil, err
		}
		return timeRange{from: TimePred{Op: ">=", Value: lo, Pos: t.Pos}, to: TimePred{Op: "<", Value: hi1, Pos: t.Pos}, Pos: t.Pos}, nil
	}
	op, err := p.expect(TokOp)
	if err != nil {
		return nil, err
	}
	v, err := p.parseTimeLit()
	if err != nil {
		return nil, err
	}
	switch op.Text {
	case ">=":
		return TimePred{Op: ">=", Value: v, Pos: t.Pos}, nil
	case ">":
		v1, err := incTimeBound(v, t.Pos)
		if err != nil {
			return nil, err
		}
		return TimePred{Op: ">=", Value: v1, Pos: t.Pos}, nil
	case "<":
		return TimePred{Op: "<", Value: v, Pos: t.Pos}, nil
	case "<=":
		v1, err := incTimeBound(v, t.Pos)
		if err != nil {
			return nil, err
		}
		return TimePred{Op: "<", Value: v1, Pos: t.Pos}, nil
	default:
		return nil, errAt(op.Pos, "time supports >=, >, <, <= or BETWEEN, found %q", op.Text)
	}
}

// incTimeBound shifts an inclusive bound to its half-open form, rejecting
// math.MaxInt64 instead of silently wrapping to MinInt64 (which would
// turn 'match nothing' into 'match everything' and vice versa).
func incTimeBound(v int64, pos Pos) (int64, error) {
	if v == math.MaxInt64 {
		return 0, errAt(pos, "time bound %d overflows; use < or >= with a finite bound", v)
	}
	return v + 1, nil
}

// timeRange is the parse of time BETWEEN a AND b: both window ends at once.
type timeRange struct {
	from, to TimePred
	Pos      Pos
}

func (p timeRange) String() string {
	return fmt.Sprintf("time in [%d, %d)", p.from.Value, p.to.Value)
}
func (p timeRange) predPos() Pos { return p.Pos }

// parseTimeLit accepts a Unix-seconds integer or a quoted date/time string
// (see ParseTime for the accepted layouts).
func (p *parser) parseTimeLit() (int64, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return 0, errAt(t.Pos, "bad time literal %q", t.Text)
		}
		p.advance()
		return v, nil
	case TokString:
		v, err := ParseTime(t.Text)
		if err != nil {
			return 0, errAt(t.Pos, "%v", err)
		}
		p.advance()
		return v, nil
	default:
		return 0, errAt(t.Pos, "expected a time literal (Unix seconds or quoted date), found %s", describe(t))
	}
}
