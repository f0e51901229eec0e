package core

import (
	"context"
	"strings"
	"sync"

	"vap/internal/vql"
)

// VQLOutput is one executed (or explained) VQL statement plus the version
// metadata clients need to reason about cache freshness: the canonical
// plan hash and the selection-scoped data fingerprint the result was
// computed against. SelectionFingerprint hashes the per-meter versions the
// executor observed (not a separate fingerprint read racing with
// concurrent appends) together with the resolved scan window — a statement
// with no time predicate scans the data extent as of plan time, so the
// same versions read through two extents are two different results. Two
// responses to one statement carrying the same value always carry
// identical rows.
type VQLOutput struct {
	*vql.Result
	PlanHash             uint64 `json:"plan_hash"`
	SelectionFingerprint uint64 `json:"selection_fingerprint"`
	// Explain marks an EXPLAIN statement: Rows hold the plan lines, and
	// nothing executed. Callers must branch on this flag, not on the
	// column shape (a user can alias a real column "plan").
	Explain bool `json:"explain,omitempty"`
}

// VQL parses, compiles, and executes one VQL statement. Results are
// memoized in the analyzer's versioned cache keyed by (canonical plan
// hash, selection fingerprint, resolved time window): two textually
// different but logically identical queries share one entry, repeated
// queries over an unchanged selection hit the cache even while other
// meters stream in, and an append to any selected meter — or an extent
// move under an unbounded window — invalidates precisely. EXPLAIN
// statements resolve the plan without executing or caching. The compiled
// plan is cached by statement text (planCache); the meters and the window
// are resolved on every call, so a catalog change or new data reaches the
// next execution of the same text.
func (a *Analyzer) VQL(ctx context.Context, src string) (*VQLOutput, error) {
	p, err := a.plans.compile(src)
	if err != nil {
		return nil, err
	}
	if p.Explain {
		text := vql.ExplainString(p, a.eng)
		res := &vql.Result{Columns: []string{"plan"}, Types: []vql.ColType{vql.TypeString}, Plan: text}
		for _, line := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' }) {
			res.Rows = append(res.Rows, []any{line})
		}
		return &VQLOutput{Result: res, PlanHash: p.Fingerprint(), Explain: true}, nil
	}
	// Resolve the meter set once: it feeds the cache key's selection
	// fingerprint and, via ExecuteResolved, the scan itself.
	ids, err := vql.ResolveScanMeters(a.eng, p)
	if err != nil {
		return nil, err
	}
	from, to, windowOK := p.ResolveWindow(a.Store())
	if len(ids) == 0 || !windowOK {
		// Empty selection or unresolvable window: the result is a cheap
		// constant (zero rows, or one null row for ungrouped aggregates);
		// skip the cache rather than key on a fingerprint that does not
		// cover the (empty) meter set.
		res, execErr := vql.ExecuteResolved(ctx, a.eng, p, ids, from, to, windowOK)
		if execErr != nil {
			return nil, execErr
		}
		return &VQLOutput{Result: res, PlanHash: p.Fingerprint()}, nil
	}
	v, err := a.run(ctx, job{kind: "vql", plan: p, ids: ids}, [][2]int64{{from, to}}, func(ctx context.Context) (any, error) {
		return vql.ExecuteResolved(ctx, a.eng, p, ids, from, to, true)
	})
	if err != nil {
		return nil, err
	}
	res := v.(*vql.Result)
	sfp := res.Fingerprint
	for _, v := range [2]uint64{uint64(from), uint64(to)} {
		sfp = (sfp ^ v) * 0x9e3779b97f4a7c15 // multiply-xorshift mix, one round per bound
		sfp ^= sfp >> 29
	}
	return &VQLOutput{Result: res, PlanHash: p.Fingerprint(), SelectionFingerprint: sfp}, nil
}

// Bounds of the plan cache: entries, and the longest statement text it
// keeps, so that a meter IN (…) list of thousands of ids is compiled per
// call instead of pinned.
const (
	planCacheEntries = 256
	planCacheMaxText = 4 << 10
)

// planCache maps statement text to its compiled plan. A plan is a pure
// function of its text — VQL has no now(), and Compile reads neither the
// catalog nor the store — so an entry never goes stale and the cache needs
// no invalidation. Plans are shared read-only by every statement that
// names them. Parse and compile errors are not cached.
type planCache struct {
	mu    sync.RWMutex // read-locked on every statement: a hit must not queue behind another
	plans map[string]*vql.Plan
}

// compile returns the plan of src, compiling it on a miss.
func (c *planCache) compile(src string) (*vql.Plan, error) {
	c.mu.RLock()
	p, ok := c.plans[src]
	c.mu.RUnlock()
	if ok {
		return p, nil
	}
	q, err := vql.Parse(src)
	if err != nil {
		return nil, err
	}
	if p, err = vql.Compile(q); err != nil {
		return nil, err
	}
	if len(src) <= planCacheMaxText {
		c.mu.Lock()
		if len(c.plans) >= planCacheEntries {
			for old := range c.plans { // full: drop an arbitrary entry
				delete(c.plans, old)
				break
			}
		}
		c.plans[strings.Clone(src)] = p
		c.mu.Unlock()
	}
	return p, nil
}
