package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"vap/internal/exec"
	"vap/internal/geo"
)

// Snapshot formats, oldest first:
//
//   - snapMagic ("VAPS", v1): raw 16 B/sample pairs only, no rollup tiers.
//   - snapMagicV2 ("VAP2"): v1 plus per-meter rollup tier bucket arrays.
//   - snapMagicV3 ("VAP3"): the chunk-verbatim layout. Sealed
//     Gorilla chunks are written as their compressed block bytes plus
//     count/TS-bounds/CRC — the snapshot writer never decodes a sealed
//     chunk and the loader installs them wholesale without re-encoding,
//     which shrinks files ~8-10x and makes recovery disk-bound instead of
//     encoder-bound. Only the unsealed head block (whose encoder state
//     cannot be resumed from payload bytes) is materialized as raw pairs,
//     alongside the tiers. A per-meter offset directory and footer at the
//     end of the file let Open fan meter installs out across a worker pool
//     with sectioned reads (io.ReaderAt), bounding peak memory to the
//     in-flight sections instead of the whole file.
//   - snapMagicV4 ("VAP4"): the current layout, VAP3's with 48-byte tier
//     buckets (rollupBucketBytes) where VAP2 and VAP3 have 64-byte ones.
//
// Rollup tiers are derived state (rollup.go): Snapshot writes VAP4 with an
// empty tier-resolution list, so a section ends after its head samples, and
// every loader skips whatever tier records an older file holds, after
// bounds-checking them, their section or file CRC still covering them.
// Open reads all four formats; every one encodes its meter records and
// (ts, value) pairs with the codec at the end of this file (which the WAL
// shares), and installs a parsed meter through installSeries, which
// derives its tiers from its samples.
var (
	snapMagic   = [4]byte{'V', 'A', 'P', 'S'}
	snapMagicV2 = [4]byte{'V', 'A', 'P', '2'}
	snapMagicV3 = [4]byte{'V', 'A', 'P', '3'}
	snapMagicV4 = [4]byte{'V', 'A', 'P', '4'}
)

// legacyBucketBytes is the size of a VAP2 / VAP3 tier bucket record; a
// VAP4 one is rollupBucketBytes.
const legacyBucketBytes = 64

const (
	// snapV3FooterLen is the fixed trailer: directory offset (8), meter
	// count (4), directory CRC (4), trailing magic (4).
	snapV3FooterLen = 20
	// snapV3DirEntryLen is one directory entry: meter ID, section offset,
	// section length.
	snapV3DirEntryLen = 24
	// snapV3ChunkHdrLen is one sealed chunk's metadata ahead of its
	// payload: minTS (8), maxTS (8), count (4), payload length (4),
	// payload CRC (4).
	snapV3ChunkHdrLen = 28
	// snapV3SectionMin is the smallest possible meter section: metadata
	// with an empty zone, zero chunks, zero head samples, zero tiers, and
	// the section CRC.
	snapV3SectionMin = 8 + 8 + 8 + 2 + 4 + 4 + 4
)

// RecoveryStats is the breakdown of the last Open's recovery work:
// snapshot load (format, bytes, meters, raw samples, verbatim chunk
// installs, duration) and WAL replay (segments, records, duration), plus
// the worker fan-out used. All zero for a store opened without a
// durability directory.
type RecoveryStats struct {
	SnapshotFormat  string `json:"snapshot_format,omitempty"`
	SnapshotBytes   int64  `json:"snapshot_bytes"`
	SnapshotMeters  int64  `json:"snapshot_meters"`
	SnapshotSamples int64  `json:"snapshot_samples"`
	SnapshotChunks  int64  `json:"snapshot_chunks"`
	SnapshotMS      int64  `json:"snapshot_ms"`
	WALSegments     int    `json:"wal_segments"`
	WALRecords      int64  `json:"wal_records"`
	WALReplayMS     int64  `json:"wal_replay_ms"`
	Workers         int    `json:"workers"`
	TotalMS         int64  `json:"total_ms"`
	// SeedSnapshotMS and SeedSnapshotBytes are the snapshot OpenSeeded
	// wrote after filling a new directory; 0 otherwise.
	SeedSnapshotMS    int64 `json:"seed_snapshot_ms,omitempty"`
	SeedSnapshotBytes int64 `json:"seed_snapshot_bytes,omitempty"`
}

// Recovery returns the breakdown of the work Open did to bring this store
// back: snapshot bytes/format/duration and WAL segments/records/duration.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// snapEntry is one meter's captured state: metadata and the sealed chunk
// list (immutable, aliased verbatim) plus a private head-block copy.
// Captures are taken under brief shard read locks; the disk write itself
// needs no locks at all.
type snapEntry struct {
	m           Meter
	chunks      []*chunk
	headPayload []byte
	headCount   int
}

// Snapshot atomically writes the full dataset to Dir/snapshot.vap without
// blocking writers: it cuts a WAL watermark, captures per-shard iterator
// snapshots under brief read locks, then streams the capture to disk while
// appends proceed. After the fsync'd temp file is renamed into place the
// directory itself is fsynced — only then are the WAL segments fully
// covered by the watermark deleted, so a crash at any point leaves either
// the old snapshot with the full log or the new snapshot with the suffix.
// It is a no-op error for in-memory stores. Concurrent Snapshot calls and
// Close serialize on snapMu.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.opts.Dir == "" {
		return ErrNoDurability
	}
	// Watermark first: every record enqueued before the cut lives in a
	// segment below it, and each such record's in-memory apply happened in
	// the same shard-lock critical section as its enqueue — so the capture
	// below (which takes each shard lock) observes all of them.
	var watermark uint64
	if s.wal != nil {
		var err error
		if watermark, err = s.wal.CutSegment(); err != nil {
			return err
		}
	}
	var entries []snapEntry
	for _, sh := range s.shards {
		sh.mu.RLock()
		for id, ser := range sh.series {
			m, ok := s.catalog.Get(id)
			if !ok {
				continue
			}
			e := snapEntry{m: m}
			e.chunks, e.headPayload, e.headCount = ser.captureChunks()
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].m.ID < entries[j].m.ID })

	// replaceDurable returns once the directory holds the new snapshot
	// durably, before anything touches the WAL: a crash earlier leaves the
	// old snapshot with every segment it needs.
	err := replaceDurable(s.fs, s.snapPath(), func(w io.Writer) error {
		return writeSnapshotV3(w, entries)
	})
	if err != nil {
		return err
	}
	// The snapshot is durable from here on: record it before retiring the
	// covered segments, so a cleanup failure does not masquerade as a
	// failed (and stats-wise stale) snapshot. The next snapshot retries
	// any segment that could not be removed.
	s.lastSnapUnix.Store(time.Now().Unix())
	if s.wal != nil {
		if err := s.wal.DeleteSegmentsBelow(watermark); err != nil {
			return fmt.Errorf("store: snapshot is durable, but retiring covered WAL segments failed: %w", err)
		}
	}
	return nil
}

// --- v4: chunk-verbatim writer -----------------------------------------
//
// The functions and constants named V3 cover the chunk-verbatim layout
// VAP3 and VAP4 share; the two differ only in magic and bucket size, and
// this writer writes no buckets.

// countingWriter tracks the byte offset the v4 writer is at, so section
// offsets recorded in the directory match the file layout.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeSnapshotV3 serializes the chunk-verbatim layout:
//
//	header:   magic "VAP4", tier resolution count (0), meter count, header CRC
//	sections: one per meter, back to back (layout in appendSnapSectionV3)
//	directory: per meter (id, section offset, section length)
//	footer:   directory offset, meter count, directory CRC, magic "VAP4"
//
// The footer-at-the-end arrangement lets the writer stream sections
// without knowing their sizes up front, and lets the loader find the
// directory with two small reads before fanning sections out to workers.
func writeSnapshotV3(w io.Writer, entries []snapEntry) error {
	cw := &countingWriter{w: w}
	le := binary.LittleEndian
	hdr := append(make([]byte, 0, 16), snapMagicV4[:]...)
	hdr = le.AppendUint32(hdr, 0) // tier resolutions: none
	hdr = le.AppendUint32(hdr, uint32(len(entries)))
	hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := cw.Write(hdr); err != nil {
		return err
	}
	dir := make([]byte, 0, len(entries)*snapV3DirEntryLen)
	var buf []byte
	for i := range entries {
		off := cw.n
		var err error
		buf, err = appendSnapSectionV3(buf[:0], &entries[i])
		if err != nil {
			return err
		}
		if _, err := cw.Write(buf); err != nil {
			return err
		}
		dir = le.AppendUint64(dir, uint64(entries[i].m.ID))
		dir = le.AppendUint64(dir, uint64(off))
		dir = le.AppendUint64(dir, uint64(len(buf)))
	}
	dirOff := cw.n
	if _, err := cw.Write(dir); err != nil {
		return err
	}
	foot := le.AppendUint64(make([]byte, 0, snapV3FooterLen), uint64(dirOff))
	foot = le.AppendUint32(foot, uint32(len(entries)))
	foot = le.AppendUint32(foot, crc32.ChecksumIEEE(dir))
	_, err := cw.Write(append(foot, snapMagicV4[:]...))
	return err
}

// appendSnapSectionV3 appends one meter's section:
//
//	meter record (appendMeter)
//	nChunks × { minTS, maxTS, count, payloadLen, payloadCRC, payload }
//	headCount × { ts, value } — the unsealed head, materialized
//	nRes × { nBuckets, buckets } — rollup tiers; nRes is 0 here
//	section CRC over every byte above
//
// Sealed chunk payloads go out verbatim — no decode. The head block is the
// one part that must be materialized: an Encoder cannot resume from its
// payload bytes, so the loader re-appends these raw pairs instead.
func appendSnapSectionV3(buf []byte, e *snapEntry) ([]byte, error) {
	le := binary.LittleEndian
	buf = appendMeter(buf, e.m)
	buf = le.AppendUint32(buf, uint32(len(e.chunks)))
	for _, c := range e.chunks {
		buf = le.AppendUint64(buf, uint64(c.minTS))
		buf = le.AppendUint64(buf, uint64(c.maxTS))
		buf = le.AppendUint32(buf, uint32(c.count))
		buf = le.AppendUint32(buf, uint32(len(c.payload)))
		buf = le.AppendUint32(buf, crc32.ChecksumIEEE(c.payload))
		buf = append(buf, c.payload...)
	}
	var head []Sample
	if e.headCount > 0 {
		var err error
		if head, err = Decode(e.headPayload, e.headCount); err != nil {
			return nil, fmt.Errorf("store: snapshot of meter %d: head block decode: %w", e.m.ID, err)
		}
	}
	buf = le.AppendUint32(buf, uint32(len(head)))
	for _, smp := range head {
		buf = appendSample(buf, smp)
	}
	return le.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// --- loading ------------------------------------------------------------

// loadTally counts what a snapshot load installed; v3 / v4 workers add to it
// concurrently.
type loadTally struct{ meters, samples, chunks atomic.Int64 }

// loadSnapshot dispatches on the snapshot magic. v3 / v4 files are loaded
// with positioned section reads through the worker pool; the legacy v1/v2
// layouts have no directory, so they still load from one whole-file read.
func (s *Store) loadSnapshot(path string, size int64) error {
	f, err := s.fs.open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s.recovery.SnapshotBytes = size
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return ErrCorrupt
	}
	var tally loadTally
	switch magic {
	case snapMagicV4:
		s.recovery.SnapshotFormat = "v4"
		err = s.loadSnapshotV3(f, size, magic, rollupBucketBytes, &tally)
	case snapMagicV3:
		s.recovery.SnapshotFormat = "v3"
		err = s.loadSnapshotV3(f, size, magic, legacyBucketBytes, &tally)
	case snapMagic:
		s.recovery.SnapshotFormat = "v1"
		err = s.loadSnapshotLegacy(path, false, &tally)
	case snapMagicV2:
		s.recovery.SnapshotFormat = "v2"
		err = s.loadSnapshotLegacy(path, true, &tally)
	default:
		return ErrCorrupt
	}
	s.recovery.SnapshotMeters = tally.meters.Load()
	s.recovery.SnapshotSamples = tally.samples.Load()
	s.recovery.SnapshotChunks = tally.chunks.Load()
	return err
}

// loadSnapshotV3 restores a chunk-verbatim snapshot whose magic is magic
// and whose tier buckets, skipped, are bucketBytes long. It reads the footer
// and directory with two small positioned reads, then fans the per-meter
// sections out across the recovery worker pool: each worker preads only
// its own section (bounding peak memory to the in-flight sections), checks
// its CRCs, parses it and installs the meter through installSeries.
func (s *Store) loadSnapshotV3(f io.ReaderAt, size int64, magic [4]byte, bucketBytes int, tally *loadTally) error {
	if size < int64(16+snapV3FooterLen) {
		return ErrCorrupt
	}
	var foot [snapV3FooterLen]byte
	if _, err := f.ReadAt(foot[:], size-snapV3FooterLen); err != nil {
		return err
	}
	if [4]byte(foot[16:20]) != magic {
		return ErrCorrupt
	}
	dirOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	nMeters := int64(binary.LittleEndian.Uint32(foot[8:]))
	dirCRC := binary.LittleEndian.Uint32(foot[12:])
	dirLen := nMeters * snapV3DirEntryLen
	// The directory must sit exactly between the sections and the footer;
	// this also clamps the directory allocation against the real file size
	// before trusting the meter count.
	if dirOff < 16 || dirLen < 0 || dirOff+dirLen != size-snapV3FooterLen {
		return ErrCorrupt
	}
	dir := make([]byte, dirLen)
	if _, err := f.ReadAt(dir, dirOff); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(dir) != dirCRC {
		return ErrCorrupt
	}
	// The header: magic (checked by loadSnapshot), the tier resolutions
	// (their count is all a section's layout needs), the meter count and
	// the header CRC.
	var fixed [8]byte
	if _, err := f.ReadAt(fixed[:], 0); err != nil {
		return err
	}
	hdrLen := 8 + 8*int64(binary.LittleEndian.Uint32(fixed[4:])) + 8
	if hdrLen > dirOff {
		return ErrCorrupt
	}
	hdr := make([]byte, hdrLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return err
	}
	r := &sliceReader{data: hdr[4:]}
	nRes := r.count(8)
	r.bytes(8 * nRes)
	if int64(r.uint32()) != nMeters || crc32.ChecksumIEEE(hdr[:hdrLen-4]) != r.uint32() {
		return ErrCorrupt
	}

	workers := recoverWorkers()
	// One section buffer per worker, reused from meter to meter (install
	// keeps nothing of it). A fresh buffer per meter was as many new pages
	// as the whole file, and first-touch page faults are the part of a
	// restart whose price differs from one run to the next.
	bufs := make(chan []byte, workers)
	for w := 0; w < workers; w++ {
		bufs <- nil
	}
	return exec.ForEach(context.Background(), int(nMeters), workers, func(i int) error {
		ent := dir[int64(i)*snapV3DirEntryLen:]
		id := int64(binary.LittleEndian.Uint64(ent[0:]))
		off := int64(binary.LittleEndian.Uint64(ent[8:]))
		length := int64(binary.LittleEndian.Uint64(ent[16:]))
		if off < hdrLen || length < snapV3SectionMin || off+length > dirOff {
			return fmt.Errorf("store: snapshot directory entry for meter %d out of bounds: %w", id, ErrCorrupt)
		}
		buf := <-bufs
		if int64(cap(buf)) < length {
			buf = make([]byte, length)
		}
		defer func() { bufs <- buf }()
		sec := buf[:length]
		if _, err := f.ReadAt(sec, off); err != nil {
			return err
		}
		sm, err := parseSectionV3(id, sec, nRes, bucketBytes)
		if err != nil {
			return err
		}
		return s.installSeries(&sm, tally)
	})
}

// parseSectionV3 parses one meter section: the section CRC is checked first
// (it covers every byte including chunk payloads), then each chunk's own
// payload CRC, and the section's nRes tier record runs are skipped. Chunks
// get their own copy of the payload: aliasing sec would pin the section for
// the life of the store.
func parseSectionV3(wantID int64, sec []byte, nRes, bucketBytes int) (snapMeter, error) {
	corrupt := func(what string) error {
		return fmt.Errorf("store: snapshot section for meter %d: %s: %w", wantID, what, ErrCorrupt)
	}
	body, tail := sec[:len(sec)-4], sec[len(sec)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return snapMeter{}, corrupt("section checksum mismatch")
	}
	r := &sliceReader{data: body}
	sm := snapMeter{m: r.meter()}
	sm.chunks = make([]*chunk, r.count(snapV3ChunkHdrLen))
	for i := range sm.chunks {
		minTS, maxTS, count := r.int64(), r.int64(), int(r.uint32())
		plen, pcrc := r.uint32(), r.uint32()
		payload := r.bytes(int(plen))
		if r.err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != pcrc {
			return snapMeter{}, corrupt("chunk payload checksum mismatch")
		}
		sm.chunks[i] = &chunk{minTS: minTS, maxTS: maxTS, count: count, payload: bytes.Clone(payload)}
	}
	sm.head = r.samples()
	r.skipTiers(nRes, bucketBytes)
	switch {
	case r.err != nil:
		return snapMeter{}, fmt.Errorf("store: snapshot section for meter %d: %w", wantID, r.err)
	case r.remaining() != 0:
		return snapMeter{}, corrupt("trailing bytes in section")
	case sm.m.ID != wantID:
		return snapMeter{}, corrupt("meter id mismatch")
	}
	return sm, nil
}

// loadSnapshotLegacy loads a VAPS (v1) or VAP2 file from one whole-file
// read. VAP2 is VAPS plus a tier-resolution list in the header and each
// meter's tiers after its samples:
//
//	magic, [nRes, nRes × res]        — the list in VAP2 only
//	nMeters × { meter record, nSamples, nSamples × { ts, value }, [nRes × tier] }
//	whole-file CRC
//
// The tier records are skipped, as in every format: installSeries derives
// the tiers from the samples.
func (s *Store) loadSnapshotLegacy(path string, v2 bool, tally *loadTally) error {
	raw, err := s.fs.readFile(path)
	if err != nil {
		return err
	}
	if len(raw) < 12 {
		return ErrCorrupt
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("store: snapshot checksum mismatch: %w", ErrCorrupt)
	}
	r := &sliceReader{data: body[4:]}
	nRes := 0
	if v2 {
		nRes = r.count(8)
		r.bytes(8 * nRes)
	}
	for n := r.uint32(); n > 0 && r.err == nil; n-- {
		sm := snapMeter{m: r.meter(), head: r.samples()}
		if r.skipTiers(nRes, legacyBucketBytes); r.err != nil {
			break
		}
		if err := s.installSeries(&sm, tally); err != nil {
			return err
		}
	}
	if r.err == nil && r.remaining() != 0 {
		return fmt.Errorf("store: %d trailing bytes in snapshot: %w", r.remaining(), ErrCorrupt)
	}
	return r.err
}

// --- the one install path -----------------------------------------------

// snapMeter is one meter as a snapshot file holds it, parsed but not yet
// installed: metadata, sealed chunks (v3 / v4), and raw samples (their
// head, or a v1/v2 sample run).
type snapMeter struct {
	m      Meter
	chunks []*chunk
	head   []Sample
}

// installSeries installs one parsed snapshot meter: the one path every
// snapshot format takes into a shard. The series is assembled off-lock —
// sealed chunks wholesale, head samples re-appended, every tier derived
// from the raw samples — so the shard lock covers only the map insert, and
// v3 / v4 workers installing into one shard serialize for nanoseconds.
// Versions count 1 for the registration and 1 per sample, as the live
// append path does, so a loaded store fingerprints exactly like a
// live-built one. A meter the file holds twice is corruption.
func (s *Store) installSeries(sm *snapMeter, tally *loadTally) error {
	id := sm.m.ID
	ser := NewSeriesRollup(id, s.rollupRes)
	if err := ser.installChunks(sm.chunks, sm.head); err != nil {
		return fmt.Errorf("store: snapshot meter %d: %w", id, err)
	}
	if err := ser.installRollups(); err != nil {
		return err
	}
	if err := s.catalog.Put(sm.m); err != nil {
		return err
	}
	n := ser.Len()
	sh := s.shardFor(id)
	sh.mu.Lock()
	if _, dup := sh.series[id]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("store: snapshot holds meter %d twice: %w", id, ErrCorrupt)
	}
	sh.series[id] = ser
	sh.version.Add(uint64(1 + n))
	sh.mu.Unlock()
	s.version.Add(uint64(1 + n))
	tally.meters.Add(1)
	tally.samples.Add(int64(n))
	tally.chunks.Add(int64(len(sm.chunks)))
	return nil
}

// --- the persistence codec ----------------------------------------------
//
// Each record the WAL and the snapshot formats share is encoded by one
// append function and decoded by one sliceReader method, all little-endian.

// appendMeter appends the meter record: id, lon, lat, u16 zone length, zone
// (26 bytes plus the zone). It is the WAL's recMeter payload and the head
// of every snapshot meter.
func appendMeter(b []byte, m Meter) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(m.ID))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Location.Lon))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Location.Lat))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Zone)))
	return append(b, m.Zone...)
}

func (r *sliceReader) meter() Meter {
	id := r.int64()
	lon, lat := r.float64(), r.float64()
	zone := r.bytes(int(r.uint16()))
	return Meter{ID: id, Location: geo.Point{Lon: lon, Lat: lat}, Zone: ZoneType(zone)}
}

// appendSample appends a (ts, value) pair, 16 bytes: the tail of a WAL
// sample payload and one element of every snapshot sample run.
func appendSample(b []byte, smp Sample) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(smp.TS))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(smp.Value))
}

func (r *sliceReader) sample() Sample {
	ts := r.int64()
	return Sample{TS: ts, Value: r.float64()}
}

// samples reads a sample run: a u32 count, then that many pairs.
func (r *sliceReader) samples() []Sample {
	out := make([]Sample, r.count(16))
	for i := range out {
		out[i] = r.sample()
	}
	return out
}

// skipTiers skips nRes tier record runs, each a u32 bucket count and that
// many size-byte records, bounds-checked like any count (count). Tiers are
// derived from the raw samples, so no loader reads the records.
func (r *sliceReader) skipTiers(nRes, size int) {
	for range nRes {
		r.bytes(r.count(size) * size)
	}
}

// errShortRecord is what a sliceReader latches on its first read past the
// end of its data.
var errShortRecord = fmt.Errorf("store: record runs past its data: %w", ErrCorrupt)

// sliceReader reads little-endian fields from a byte slice. The first read
// past the end latches err and every later read returns zeros, so a parser
// checks err once per structure rather than once per field.
type sliceReader struct {
	data []byte
	off  int
	err  error
}

// remaining returns the unread byte count.
func (r *sliceReader) remaining() int { return len(r.data) - r.off }

// bytes returns the next n bytes without copying (the result aliases the
// reader's data), or nil once the reader has failed; the first failure is
// the one err keeps.
func (r *sliceReader) bytes(n int) []byte {
	if r.err == nil && (n < 0 || n > r.remaining()) {
		r.err = errShortRecord
	}
	if r.err != nil {
		return nil
	}
	out := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return out
}

// count reads a u32 element count and fails the reader unless that many
// elements of size bytes fit in what is left: the clamp that keeps a
// corrupt count from sizing a multi-GB allocation.
func (r *sliceReader) count(size int) int {
	n := int(r.uint32())
	if n*size > r.remaining() {
		r.err = errShortRecord
		return 0
	}
	return n
}

func (r *sliceReader) uint16() uint16 {
	if p := r.bytes(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *sliceReader) uint32() uint32 {
	if p := r.bytes(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *sliceReader) int64() int64 {
	if p := r.bytes(8); p != nil {
		return int64(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (r *sliceReader) float64() float64 { return math.Float64frombits(uint64(r.int64())) }
