// Package exec is VAP's parallel execution engine: the shared substrate
// the query, core, and api layers submit their expensive kernels to
// (distance matrices, KDE grids, per-meter series materialization,
// embeddings) instead of hand-rolling serial compute in every handler.
//
// It combines three mechanisms:
//
//   - a bounded fan-out width (Options.Workers, default runtime.GOMAXPROCS(0))
//     that parallel helpers like ForEach use to chunk work across
//     goroutines with dynamic scheduling and context cancellation (a
//     Team keeps those goroutines across the passes of one computation);
//   - singleflight deduplication: concurrent Do calls for the same Key
//     share one computation instead of racing duplicates;
//   - a versioned result cache, bounded by bytes (LRU eviction): keys
//     embed a data-layer version — typically the selection fingerprint of
//     exactly the meters a task reads (store.Store.Fingerprint over the
//     sharded store's per-meter versions) — so an append invalidates only
//     the results whose selections contain the mutated meters, without
//     any explicit cache flush.
package exec

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Options tunes an Engine. The zero value selects sensible defaults.
type Options struct {
	// Workers is the fan-out width for parallel kernels. <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Stats counts engine activity since construction. All counters are
// cumulative and monotone.
type Stats struct {
	Hits      uint64 // Lookup and Do calls that found a cached value
	Misses    uint64 // Do calls that found no cached value
	Computes  uint64 // compute functions actually executed
	Dedups    uint64 // Do calls that joined an in-flight computation
	Evictions uint64 // results dropped by the byte bound, or never stored for exceeding it
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

// KeyOf fingerprints parts into a Key. Parts are hashed in order, so any
// canonical ordering (e.g. sorted meter IDs) must be done by the caller:
// uint64, int64 and string parts directly, any other part as its %v text.
func KeyOf(version uint64, kind string, parts ...any) Key {
	h := uint64(fnvOffset)
	for _, p := range parts {
		switch v := p.(type) {
		case uint64:
			h = hashWord(h, v)
		case int64:
			h = hashWord(h, uint64(v))
		case string:
			h = hashString(h, v)
		default:
			h = hashString(h, fmt.Sprint(v))
		}
		h = (h ^ 0x1f) * fnvPrime // part separator
	}
	return Key{Version: version, Kind: kind, Hash: h}
}

// 64-bit FNV-1a, inline: a key costs no hasher and no formatting.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashWord(h, w uint64) uint64 {
	for shift := 0; shift < 64; shift += 8 {
		h = (h ^ (w >> shift & 0xff)) * fnvPrime
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// cacheBytes bounds the result cache: LRU entries are evicted until the
// charged total is at or under it, and a result charged more than it is
// returned but never stored. 16 MiB holds a dashboard's 48 statements
// (≈ 0.2 MB together) beside an analyst's 460 x 365 TypicalView (≈ 1.4 MB)
// and a few of its flow maps (≈ 0.2 MB each), with room for four 40,320-row
// exports (≈ 3.2 MB each), which are rarely asked for twice. The Go heap
// grows to about twice what is live, so each cached byte costs about two
// of RSS: a 64-entry bound kept ≈ 13 exports and ≈ 55 MB more peak RSS.
const cacheBytes = 16 << 20

// entryBytes is the fixed charge of one cached result beyond its value's
// own bytes: its key, entry, list element, map slot and boxed note.
const entryBytes = 256

// Sizer is implemented by the results a cache keeps: CacheBytes is the
// value's heap footprint, from its lengths, charged once when it is
// stored. A value that is not a Sizer is charged entryBytes alone.
type Sizer interface {
	CacheBytes() int64
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

	mu     sync.Mutex
	lru    *list.List             // front = most recently used; values are *entry
	byTask map[task]*list.Element // cache index: the last version stored of each task
	bytes  int64                  // sum of the cached entries' charges
	flight map[Key]*call          // in-flight computations

	hits, misses, computes, dedups, evictions atomic.Uint64
}

// task is a Key without its version. The cache holds one entry a task:
// versions only move forward, so a result stored for an older version can
// never be hit again, and a newer one replaces it instead of leaving it to
// the byte bound (a dashboard under ingest would otherwise fill the bound
// with dead entries).
type task struct {
	kind string
	hash uint64
}

type entry struct {
	key   Key
	val   any
	note  any
	bytes int64 // what val is charged, taken by insertLocked
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	opts.defaults()
	return &Engine{
		workers: opts.Workers,
		lru:     list.New(),
		byTask:  make(map[task]*list.Element),
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

// Bytes returns the cached results' total charge (Sizer).
func (e *Engine) Bytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bytes
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
	e.byTask = make(map[task]*list.Element)
	e.bytes = 0
}

// Lookup returns the value cached under key and the note Do stored beside
// it, counting one hit. A miss counts nothing and starts nothing: the Do
// that follows it counts the miss.
func (e *Engine) Lookup(key Key) (val, note any, ok bool) {
	e.mu.Lock()
	el, ok := e.cachedLocked(key)
	if !ok {
		e.mu.Unlock()
		return nil, nil, false
	}
	e.lru.MoveToFront(el)
	ent := el.Value.(*entry)
	e.mu.Unlock()
	e.hits.Add(1)
	return ent.val, ent.note, true
}

// Do returns the cached value for key, or computes it via compute,
// deduplicating concurrent calls for the same key. Successful results are
// cached (bounded by bytes, LRU eviction); errors are not. A panic in
// compute is returned, to the caller and every joiner, as a *PanicError.
// If the computation leader is cancelled, joined callers whose own context
// is still live retry.
func (e *Engine) Do(ctx context.Context, key Key, compute func(ctx context.Context) (any, error)) (any, error) {
	return e.DoNote(ctx, key, nil, compute)
}

// DoNote is Do that caches note beside a value it computes, for Lookup to
// return with it: what the caller knew about the value before computing
// it, such as what the computation was admitted as.
func (e *Engine) DoNote(ctx context.Context, key Key, note any, compute func(ctx context.Context) (any, error)) (any, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.mu.Lock()
		if el, ok := e.cachedLocked(key); ok {
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
		func() {
			// A panic must still release the key and wake the joiners.
			defer func() {
				if r := recover(); r != nil {
					c.val, c.err = nil, &PanicError{Value: r, Stack: debug.Stack()}
				}
			}()
			c.val, c.err = compute(ctx)
		}()

		e.mu.Lock()
		delete(e.flight, key)
		if c.err == nil {
			e.insertLocked(&entry{key: key, val: c.val, note: note})
		}
		e.mu.Unlock()
		close(c.done)
		return c.val, c.err
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cachedLocked returns the entry cached under key. Callers hold e.mu.
func (e *Engine) cachedLocked(key Key) (*list.Element, bool) {
	el, ok := e.byTask[task{key.Kind, key.Hash}]
	if !ok || el.Value.(*entry).key.Version != key.Version {
		return nil, false
	}
	return el, true
}

// insertLocked charges a result and adds it in place of any version of its
// task, evicting from the LRU tail until the total charge is at or under
// cacheBytes. A key stored again is re-charged; a result charged more than
// the bound is not stored (one eviction). Callers hold e.mu.
func (e *Engine) insertLocked(ent *entry) {
	ent.bytes = entryBytes
	if s, ok := ent.val.(Sizer); ok {
		ent.bytes += s.CacheBytes()
	}
	t := task{ent.key.Kind, ent.key.Hash}
	if el, ok := e.byTask[t]; ok {
		e.removeLocked(el)
	}
	if ent.bytes > cacheBytes {
		e.evictions.Add(1)
		return
	}
	e.byTask[t] = e.lru.PushFront(ent)
	e.bytes += ent.bytes
	for e.bytes > cacheBytes {
		e.removeLocked(e.lru.Back())
		e.evictions.Add(1)
	}
}

// removeLocked drops one cached entry and its charge. Callers hold e.mu.
func (e *Engine) removeLocked(el *list.Element) {
	ent := e.lru.Remove(el).(*entry)
	delete(e.byTask, task{ent.key.Kind, ent.key.Hash})
	e.bytes -= ent.bytes
}
