package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vap/internal/geo"
)

// Options configures a Store.
type Options struct {
	// Dir is the durability directory. Empty means a purely in-memory store
	// with no WAL or snapshots.
	Dir string
	// SyncEveryAppend makes every Append wait for its group commit: when it
	// returns nil, the sample is on disk. Defaults to false, where appends
	// return immediately and the committer flushes+fsyncs the log in the
	// background at most CommitInterval behind.
	SyncEveryAppend bool
	// SegmentBytes is the WAL segment rotation threshold; <= 0 selects
	// DefaultSegmentBytes (64 MiB).
	SegmentBytes int64
	// CommitInterval is the group-commit cadence: sync appenders that
	// arrive while a commit's fsync is in flight are batched into the next
	// one, and buffered (non-sync) appends are flushed at least this often.
	// <= 0 selects DefaultCommitInterval (2ms).
	CommitInterval time.Duration
	// Shards is the number of lock shards the series map is split across.
	// Meters are hashed by ID onto shards, so concurrent appends and reads
	// touching different meters contend only when they land on the same
	// shard. <= 0 selects 16; other values are rounded up to the next
	// power of two.
	Shards int
	// RollupRes lists the rollup tier resolutions, in seconds, to maintain
	// per meter (see rollup.go). nil selects DefaultRollupRes (hourly +
	// daily); an explicitly empty non-nil slice disables rollups. Values
	// are sorted and deduplicated; non-positive entries are dropped.
	RollupRes []int64
	// RetainRaw ages raw samples out of snapshots: when > 0, each Snapshot
	// drops sealed chunks wholly older than (newest sample - RetainRaw)
	// from both the snapshot file and memory. Rollup tiers are never aged,
	// so coarse aggregates survive past the raw horizon. Zero keeps raw
	// data forever. The cutoff is data time, not wall time: it trails the
	// newest stored sample.
	RetainRaw time.Duration
	// RecoverWorkers is the worker-pool width Open uses for parallel
	// recovery: v3 / v4 snapshot sections are installed and WAL records
	// applied across this many goroutines. <= 0 selects GOMAXPROCS; 1
	// forces the fully serial paths.
	RecoverWorkers int
}

const defaultShards = 16

// shard owns a disjoint slice of the meter space: its own series map,
// mutex, and monotonic mutation counter.
type shard struct {
	mu      sync.RWMutex
	series  map[int64]*Series
	version atomic.Uint64 // mutations that landed on this shard
}

// Store is the embedded spatio-temporal database: a catalog of meters with
// a spatial index, one compressed time series per meter, and optional
// durability (WAL + snapshots). It is safe for concurrent use.
//
// The series map is split across lock shards (Options.Shards) so ingest
// and query traffic on different meters does not serialize behind one
// global mutex. Every series additionally carries a per-meter version,
// bumped on each mutation of that meter; Fingerprint hashes the versions
// of a meter subset so execution-layer caches can key results on exactly
// the meters a task reads.
type Store struct {
	catalog *Catalog
	shards  []*shard
	mask    uint64
	opts    Options
	// rollupRes is the normalized tier resolution set (ascending, deduped)
	// every series maintains. Immutable after Open.
	rollupRes []int64
	// wal is the segmented group-commit log. Records are enqueued under the
	// owning shard lock (so per-meter WAL order matches series order and
	// replay never drops an append as out-of-order) and committed — one
	// write+fsync per batch — by the WAL's committer goroutine.
	wal *WAL
	// snapMu serializes Snapshot against itself and Close. Lock order:
	// snapMu before shard locks.
	snapMu sync.Mutex
	// lastSnapUnix is the wall-clock second the latest snapshot became
	// durable; 0 means never.
	lastSnapUnix atomic.Int64
	// closed flips once in Close while every shard lock is held, so any
	// mutation that observes it false under its shard lock is guaranteed
	// to finish before the WAL is released.
	closed atomic.Bool
	// version counts successful mutations store-wide (meter registrations,
	// appends). It is the coarse invalidation signal; Fingerprint is the
	// precise, selection-scoped one.
	version atomic.Uint64
	// recovery is the breakdown of the work Open did (snapshot load + WAL
	// replay). Written only during Open, read-only afterwards.
	recovery RecoveryStats
}

// ErrClosed is returned by mutations (and a second Close) after the store
// has been closed. Reads keep working on the in-memory data.
var ErrClosed = errors.New("store: closed")

// ErrNoDurability is returned by Snapshot on a store opened without a
// durability directory: there is nowhere to persist to.
var ErrNoDurability = errors.New("store: snapshot requires a durability directory")

// Version returns the store's monotonically increasing data version. It
// changes on every successful mutation and never decreases; two equal
// versions imply identical stored data.
func (s *Store) Version() uint64 { return s.version.Load() }

// NumShards returns the number of lock shards.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardVersions returns each shard's mutation counter, indexed by shard.
func (s *Store) ShardVersions() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.version.Load()
	}
	return out
}

// shardIndex maps a meter ID onto its shard index with a 64-bit finalizer
// so sequentially assigned IDs spread instead of clustering.
func (s *Store) shardIndex(id int64) int {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x & s.mask)
}

// shardFor returns the shard owning a meter ID.
func (s *Store) shardFor(id int64) *shard { return s.shards[s.shardIndex(id)] }

// recoverWorkers resolves Options.RecoverWorkers (<= 0 means GOMAXPROCS).
func (s *Store) recoverWorkers() int {
	if s.opts.RecoverWorkers > 0 {
		return s.opts.RecoverWorkers
	}
	return runtime.GOMAXPROCS(0)
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Open creates a Store. If opts.Dir is non-empty, it loads the latest
// snapshot (if any) and replays the WAL on top of it — both fanned out
// across Options.RecoverWorkers workers (snapshot meter installs for
// v3 / v4 files, per-shard WAL record appliers). Recovery() reports the
// breakdown.
func Open(opts Options) (*Store, error) {
	n := opts.Shards
	if n <= 0 {
		n = defaultShards
	}
	n = nextPow2(n)
	s := &Store{
		catalog:   NewCatalog(),
		shards:    make([]*shard, n),
		mask:      uint64(n - 1),
		opts:      opts,
		rollupRes: normalizeRollupRes(opts.RollupRes),
	}
	for i := range s.shards {
		s.shards[i] = &shard{series: make(map[int64]*Series)}
	}
	if opts.Dir == "" {
		return s, nil
	}
	start := time.Now()
	s.recovery.Workers = s.recoverWorkers()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	// A crash mid-snapshot can leave a partial temp file; it was never
	// renamed into place, so it covers nothing and is safe to drop.
	os.Remove(filepath.Join(opts.Dir, "snapshot.vap.tmp"))
	snapPath := filepath.Join(opts.Dir, "snapshot.vap")
	if _, err := os.Stat(snapPath); err == nil {
		snapStart := time.Now()
		if err := s.loadSnapshot(snapPath); err != nil {
			return nil, fmt.Errorf("store: loading snapshot: %w", err)
		}
		s.recovery.SnapshotMS = time.Since(snapStart).Milliseconds()
	}
	// OpenWAL truncates the tail segment to its last valid record boundary
	// before anything is replayed or appended, so recovery can neither stop
	// early at a torn record nor append new data behind one.
	wal, err := OpenWAL(opts.Dir, walOptions{
		SegmentBytes:   opts.SegmentBytes,
		CommitInterval: opts.CommitInterval,
	})
	if err != nil {
		return nil, err
	}
	replayStart := time.Now()
	records, segments, err := s.replayWAL(wal)
	s.recovery.WALRecords = records
	s.recovery.WALSegments = segments
	s.recovery.WALReplayMS = time.Since(replayStart).Milliseconds()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: replaying WAL: %w", err)
	}
	s.wal = wal
	s.recovery.TotalMS = time.Since(start).Milliseconds()
	return s, nil
}

// ErrUnknownMeter is returned when appending to an unregistered meter.
var ErrUnknownMeter = fmt.Errorf("store: unknown meter")

// lockAll/unlockAll take every shard lock in index order (whole-store
// operations: Close, Snapshot).
func (s *Store) lockAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// Close commits and closes the WAL and releases resources. A second
// Close, like any mutation after the first, returns ErrClosed. An
// in-flight Snapshot finishes first (snapMu).
func (s *Store) Close() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.lockAll()
	if s.closed.Load() {
		s.unlockAll()
		return ErrClosed
	}
	s.closed.Store(true)
	s.unlockAll()
	// Every appender that passed the closed check held its shard lock while
	// enqueueing, and lockAll above waited for them — so the WAL's final
	// commit below covers every acknowledged enqueue.
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// Sync forces a group commit of every append buffered so far (appends made
// without SyncEveryAppend) and waits for it to reach disk. It is a no-op
// for in-memory stores.
func (s *Store) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// Catalog exposes the meter metadata registry.
func (s *Store) Catalog() *Catalog { return s.catalog }

// putMeterShardLocked registers m under its (held) shard lock: catalog
// entry, series creation (or a version bump when replacing an existing
// meter, since relocation changes query results), and version bumps.
func (s *Store) putMeterShardLocked(sh *shard, m Meter) error {
	if err := s.catalog.Put(m); err != nil {
		return err
	}
	if ser, ok := sh.series[m.ID]; ok {
		ser.ver++
	} else {
		sh.series[m.ID] = NewSeriesRollup(m.ID, s.rollupRes)
	}
	sh.version.Add(1)
	s.version.Add(1)
	return nil
}

// PutMeter registers a meter and creates its (empty) series. Re-putting an
// existing meter replaces its metadata and bumps its version. The WAL
// record is enqueued before the in-memory registration, so a failed log
// never leaves memory ahead of it.
func (s *Store) PutMeter(m Meter) error {
	sh := s.shardFor(m.ID)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	// Pre-validate what putMeterShardLocked would reject, so an invalid
	// meter is never logged (replay would refuse it and fail the open).
	if !m.Location.Valid() {
		sh.mu.Unlock()
		return fmt.Errorf("store: meter %d has invalid location %v", m.ID, m.Location)
	}
	var commit *WALCommit
	if s.wal != nil {
		c, err := s.wal.AppendMeter(m, s.opts.SyncEveryAppend)
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		commit = c
	}
	err := s.putMeterShardLocked(sh, m)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	if commit != nil {
		return commit.Wait()
	}
	return nil
}

func (s *Store) replayMeter(m Meter) error {
	sh := s.shardFor(m.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.putMeterShardLocked(sh, m)
}

func (s *Store) replaySample(id int64, smp Sample) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.appendShardLocked(sh, id, smp)
}

func (s *Store) appendShardLocked(sh *shard, meterID int64, smp Sample) error {
	ser, ok := sh.series[meterID]
	if !ok {
		return ErrUnknownMeter
	}
	if err := ser.Append(smp); err != nil {
		return err
	}
	sh.version.Add(1)
	s.version.Add(1)
	return nil
}

// Append stores one sample for a registered meter: the one-sample case of
// AppendBatch, under the same durability contract.
func (s *Store) Append(meterID int64, smp Sample) error {
	_, err := s.AppendBatch(meterID, []Sample{smp})
	return err
}

// AppendBatch stores a batch of in-order samples for one meter, amortizing
// lock and WAL overhead: the whole batch is logged as one enqueue and
// covered by one group commit. It stops at the first invalid sample,
// returning the number of samples stored.
//
// Durability contract: the WAL records are enqueued before any sample is
// applied in memory, so a WAL failure (sticky commit error, closed log)
// returns without mutating the series and the caller can retry without
// hitting ErrOutOfOrder. With SyncEveryAppend the call additionally waits
// for the group commit: a nil return means the batch is fsynced. If that
// wait itself reports a commit failure, the samples are applied in memory
// but their durability is unknown; the WAL's failure is sticky, so every
// subsequent append fails fast until the store is reopened.
func (s *Store) AppendBatch(meterID int64, smps []Sample) (int, error) {
	sh := s.shardFor(meterID)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return 0, ErrClosed
	}
	ser, ok := sh.series[meterID]
	if !ok {
		sh.mu.Unlock()
		return 0, ErrUnknownMeter
	}
	// Find the valid prefix first: each sample must be strictly after both
	// the series tail and its predecessors in the batch.
	n := len(smps)
	var batchErr error
	last := ser.LastTS()
	nonEmpty := ser.Len() > 0
	for i, smp := range smps {
		if nonEmpty && smp.TS <= last {
			n, batchErr = i, ErrOutOfOrder
			break
		}
		last, nonEmpty = smp.TS, true
	}
	var commit *WALCommit
	if s.wal != nil && n > 0 {
		c, err := s.wal.AppendSamples(meterID, smps[:n], s.opts.SyncEveryAppend)
		if err != nil {
			sh.mu.Unlock()
			return 0, err
		}
		commit = c
	}
	b := GetBatch()
	_ = ser.appendRun(smps[:n], b) // validated above
	PutBatch(b)
	if n > 0 {
		sh.version.Add(uint64(n))
		s.version.Add(uint64(n))
	}
	sh.mu.Unlock()
	if commit != nil {
		if err := commit.Wait(); err != nil {
			return n, err
		}
	}
	return n, batchErr
}

// Range returns the samples of one meter with from <= TS < to.
func (s *Store) Range(meterID int64, from, to int64) ([]Sample, error) {
	sh := s.shardFor(meterID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[meterID]
	if !ok {
		return nil, ErrUnknownMeter
	}
	return ser.Range(from, to)
}

// Iter returns a pushdown iterator over one meter's samples with
// from <= TS < to. The iterator snapshots the series under the shard lock
// (immutable sealed chunks plus a copy of the head block) and then decodes
// lock-free, so callers stream samples without blocking writers and
// without materializing full sample slices.
func (s *Store) Iter(meterID int64, from, to int64) (*SeriesIter, error) {
	sh := s.shardFor(meterID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[meterID]
	if !ok {
		return nil, ErrUnknownMeter
	}
	return ser.Iter(from, to), nil
}

// Bounds returns the first and last timestamps of a meter's series.
func (s *Store) Bounds(meterID int64) (int64, int64, error) {
	sh := s.shardFor(meterID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[meterID]
	if !ok {
		return 0, 0, ErrUnknownMeter
	}
	return ser.Bounds()
}

// MeterVersions returns the per-meter versions of ids, aligned by index
// (0 for unknown meters). A meter's version is a counter bumped on every
// mutation of that meter (registration, metadata replacement, append).
// Lookups are grouped so each shard is locked at most once.
func (s *Store) MeterVersions(ids []int64) []uint64 {
	vers := make([]uint64, len(ids))
	byShard := make(map[*shard][]int, len(s.shards))
	for i, id := range ids {
		sh := s.shardFor(id)
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, idxs := range byShard {
		sh.mu.RLock()
		for _, i := range idxs {
			if ser, ok := sh.series[ids[i]]; ok {
				vers[i] = ser.ver
			}
		}
		sh.mu.RUnlock()
	}
	return vers
}

// SeriesStats returns the per-series statistics of ids, aligned by index
// (zero-valued entries, with MeterID preserved, for unknown meters).
// Lookups are grouped so each shard is locked at most once; everything
// returned is append-time metadata, so the call never decodes a block.
// This is the statistics surface the VQL cost-based planner reads.
func (s *Store) SeriesStats(ids []int64) []SeriesStats {
	stats := make([]SeriesStats, len(ids))
	byShard := make(map[*shard][]int, len(s.shards))
	for i, id := range ids {
		stats[i].MeterID = id
		sh := s.shardFor(id)
		byShard[sh] = append(byShard[sh], i)
	}
	for sh, idxs := range byShard {
		sh.mu.RLock()
		for _, i := range idxs {
			if ser, ok := sh.series[ids[i]]; ok {
				stats[i] = ser.Stats()
			}
		}
		sh.mu.RUnlock()
	}
	return stats
}

// Fingerprint hashes the (id, per-meter version) pairs of ids into one
// selection-scoped version: it changes iff one of those meters mutates (or
// the set itself changes), so execution-layer caches keyed on it survive
// appends to every other meter. A nil ids means all registered meters.
// Each pair is hashed independently and the pair hashes combine
// commutatively, so the fingerprint is insensitive to the order of ids —
// two selections resolving to the same meter set fingerprint identically
// regardless of how the caller enumerated it.
func (s *Store) Fingerprint(ids []int64) uint64 {
	if ids == nil {
		ids = s.catalog.IDs()
	}
	return FingerprintPairs(ids, s.MeterVersions(ids))
}

// FingerprintPairs combines (id, version) pairs into the selection-scoped
// fingerprint Store.Fingerprint produces. Each pair is hashed
// independently and the hashes combine commutatively, so enumeration
// order does not matter. Exported so executors that already hold
// per-meter versions observed at scan time (SeriesIter.Version) can stamp
// results with the fingerprint of exactly the data they read.
func FingerprintPairs(ids []int64, vers []uint64) uint64 {
	var acc uint64
	var buf [16]byte
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], vers[i])
		h := fnv.New64a()
		h.Write(buf[:])
		acc += h.Sum64()
	}
	// Fold in the set size so the empty set and pathological cancellations
	// stay distinguishable from "no data".
	return acc ^ (uint64(len(ids)) * 0x9e3779b97f4a7c15)
}

// GlobalFingerprint hashes the per-shard versions into one store-wide
// data-version stamp in O(shards): it changes whenever any mutation lands
// anywhere. It is the cheap all-data signal for per-tick/per-request
// stamping (SSE events, /api/stats); selection-scoped cache keys use
// Fingerprint, which is precise per meter subset but walks the subset.
func (s *Store) GlobalFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, sh := range s.shards {
		binary.LittleEndian.PutUint64(buf[:], sh.version.Load())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TimeBounds returns the min first and max last timestamp across all
// non-empty series; ok is false when no data is stored.
func (s *Store) TimeBounds() (first, last int64, ok bool) {
	first, last = maxInt64, minInt64
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, ser := range sh.series {
			f, l, err := ser.Bounds()
			if err != nil {
				continue
			}
			if f < first {
				first = f
			}
			if l > last {
				last = l
			}
			ok = true
		}
		sh.mu.RUnlock()
	}
	if !ok {
		return 0, 0, false
	}
	return first, last, true
}

// Stats reports storage totals.
type Stats struct {
	Meters          int
	Samples         int
	CompressedBytes int
	RawBytes        int // samples * 16 (8B ts + 8B value)
	Shards          int
	// WALSegments / WALBytes report the live write-ahead-log footprint;
	// both are 0 for in-memory stores.
	WALSegments int
	WALBytes    int64
	// LastSnapshotUnix is the wall-clock second the latest snapshot became
	// durable in this process; 0 means no snapshot has completed.
	LastSnapshotUnix int64
	// Rollups is the per-tier bucket count and byte footprint, ascending by
	// resolution; nil when rollups are disabled.
	Rollups []RollupTierStats
}

// Stats returns aggregate storage statistics.
func (s *Store) Stats() Stats {
	st := Stats{Meters: s.catalog.Len(), Shards: len(s.shards)}
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, ser := range sh.series {
			st.Samples += ser.Len()
			st.CompressedBytes += ser.CompressedBytes()
		}
		sh.mu.RUnlock()
	}
	st.RawBytes = st.Samples * 16
	st.WALSegments, st.WALBytes = s.WALStats()
	st.LastSnapshotUnix = s.lastSnapUnix.Load()
	st.Rollups = s.rollupStats()
	return st
}

// WALStats returns the live WAL segment count and total bytes (0, 0 for
// in-memory stores).
func (s *Store) WALStats() (segments int, bytes int64) {
	if s.wal == nil {
		return 0, 0
	}
	return s.wal.SegmentStats()
}

// LastSnapshotUnix returns the wall-clock second the latest snapshot
// completed in this process, or 0 if none has.
func (s *Store) LastSnapshotUnix() int64 { return s.lastSnapUnix.Load() }

// Within returns meter IDs inside a geographic box.
func (s *Store) Within(box geo.BBox) []int64 { return s.catalog.Within(box) }
