// Package exec is VAP's parallel execution engine: the shared substrate
// the query, core, and api layers submit their expensive kernels to
// (distance matrices, KDE grids, per-meter series materialization,
// embeddings) instead of hand-rolling serial compute in every handler.
//
// It combines three mechanisms:
//
//   - a bounded fan-out width (Options.Workers, default runtime.GOMAXPROCS(0))
//     that parallel helpers like ForEach use to chunk work across
//     goroutines with dynamic scheduling and context cancellation;
//   - singleflight deduplication: concurrent Do calls for the same Key
//     share one computation instead of racing duplicates;
//   - a versioned, LRU-bounded result cache: keys embed a data-layer
//     version — typically the selection fingerprint of exactly the meters
//     a task reads (store.Store.Fingerprint over the sharded
//     store's per-meter versions) — so an append invalidates only the
//     results whose selections contain the mutated meters, without any
//     explicit cache flush.
package exec

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes an Engine. The zero value selects sensible defaults.
type Options struct {
	// Workers is the fan-out width for parallel kernels. <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// CacheEntries bounds the result cache (LRU eviction). <= 0 selects
	// 64 entries. The bound is a count, not a byte size: one cached
	// analysis result can hold a full feature matrix or several density
	// grids (megabytes at large meter counts), so size this to the
	// distinct (selection, parameter) combinations expected between
	// ingests, not to available memory.
	CacheEntries int
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 64
	}
}

// Stats counts engine activity since construction. All counters are
// cumulative and monotone.
type Stats struct {
	Hits      uint64 // Do calls answered from the cache
	Misses    uint64 // Do calls that found no cached value
	Computes  uint64 // compute functions actually executed
	Dedups    uint64 // Do calls that joined an in-flight computation
	Evictions uint64 // cache entries dropped by the LRU bound
}

// Key identifies one memoizable result: the data version it was computed
// against — the caller's choice of the store's global version or, for
// selection-scoped invalidation, a per-meter version fingerprint — a
// task-family tag, and a canonical fingerprint of every parameter that
// influences the result.
type Key struct {
	Version uint64
	Kind    string
	Hash    uint64
}

// KeyOf fingerprints parts into a Key. Parts are formatted with %v in
// order, so any canonical ordering (e.g. sorted meter IDs) must be done by
// the caller.
func KeyOf(version uint64, kind string, parts ...any) Key {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x1f", p)
	}
	return Key{Version: version, Kind: kind, Hash: h.Sum64()}
}

// call is one in-flight computation other Do callers can join.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// Engine memoizes and deduplicates keyed computations. It is safe for
// concurrent use.
type Engine struct {
	workers int
	maxEnt  int

	mu     sync.Mutex
	lru    *list.List            // front = most recently used; values are *entry
	byKey  map[Key]*list.Element // cache index
	flight map[Key]*call         // in-flight computations

	hits, misses, computes, dedups, evictions atomic.Uint64
}

type entry struct {
	key Key
	val any
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	opts.defaults()
	return &Engine{
		workers: opts.Workers,
		maxEnt:  opts.CacheEntries,
		lru:     list.New(),
		byKey:   make(map[Key]*list.Element),
		flight:  make(map[Key]*call),
	}
}

// Workers returns the engine's fan-out width.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Computes:  e.computes.Load(),
		Dedups:    e.dedups.Load(),
		Evictions: e.evictions.Load(),
	}
}

// Len returns the number of cached results.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lru.Len()
}

// Invalidate drops every currently cached result. Computations already in
// flight are unaffected and will still store their results when they
// complete, so the cache is only guaranteed empty if nothing is computing.
// Precise invalidation normally happens for free because keys embed the
// data version; this is the hammer for tests and admin endpoints.
func (e *Engine) Invalidate() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lru.Init()
	e.byKey = make(map[Key]*list.Element)
}

// Do returns the cached value for key, or computes it via compute,
// deduplicating concurrent calls for the same key. Successful results are
// cached (LRU-bounded); errors are not. If the computation leader is
// cancelled, joined callers whose own context is still live retry.
func (e *Engine) Do(ctx context.Context, key Key, compute func(ctx context.Context) (any, error)) (any, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.mu.Lock()
		if el, ok := e.byKey[key]; ok {
			e.lru.MoveToFront(el)
			v := el.Value.(*entry).val
			e.mu.Unlock()
			e.hits.Add(1)
			return v, nil
		}
		if c, ok := e.flight[key]; ok {
			e.mu.Unlock()
			e.dedups.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-c.done:
			}
			if c.err == nil {
				return c.val, nil
			}
			if isContextErr(c.err) && ctx.Err() == nil {
				// Leader was cancelled but we were not: retry the loop and
				// become (or join) a fresh computation.
				continue
			}
			return nil, c.err
		}
		c := &call{done: make(chan struct{})}
		e.flight[key] = c
		e.mu.Unlock()

		e.misses.Add(1)
		e.computes.Add(1)
		c.val, c.err = compute(ctx)

		e.mu.Lock()
		delete(e.flight, key)
		if c.err == nil {
			e.insertLocked(key, c.val)
		}
		e.mu.Unlock()
		close(c.done)
		return c.val, c.err
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insertLocked adds a result, evicting from the LRU tail past capacity.
// Callers hold e.mu.
func (e *Engine) insertLocked(key Key, val any) {
	if el, ok := e.byKey[key]; ok {
		el.Value.(*entry).val = val
		e.lru.MoveToFront(el)
		return
	}
	e.byKey[key] = e.lru.PushFront(&entry{key: key, val: val})
	for e.lru.Len() > e.maxEnt {
		tail := e.lru.Back()
		e.lru.Remove(tail)
		delete(e.byKey, tail.Value.(*entry).key)
		e.evictions.Add(1)
	}
}
