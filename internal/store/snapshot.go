package store

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"vap/internal/exec"
	"vap/internal/geo"
)

// Snapshot formats, oldest first:
//
//   - snapMagic ("VAPS", v1): raw 16 B/sample pairs only, no rollup tiers.
//   - snapMagicV2 ("VAP2"): v1 plus per-meter rollup tier bucket arrays, so
//     tiers survive retention aging raw data out.
//   - snapMagicV3 ("VAP3"): the current chunk-verbatim layout. Sealed
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
//
// Open reads all three; Snapshot writes v3.
var (
	snapMagic   = [4]byte{'V', 'A', 'P', 'S'}
	snapMagicV2 = [4]byte{'V', 'A', 'P', '2'}
	snapMagicV3 = [4]byte{'V', 'A', 'P', '3'}
)

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
}

// Recovery returns the breakdown of the work Open did to bring this store
// back: snapshot bytes/format/duration and WAL segments/records/duration.
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// snapEntry is one meter's captured state: metadata, the rollup tier
// capture, and the sealed chunk list (immutable, aliased verbatim) plus a
// private head-block copy. Captures are taken under brief shard read
// locks; the disk write itself needs no locks at all. With retention
// active the raw capture covers only the retained chunks while tiers
// always cover the full history.
type snapEntry struct {
	m           Meter
	chunks      []*chunk
	headPayload []byte
	headCount   int
	tiers       []snapTier
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
	// Retention cutoff in data time: sealed chunks wholly older than this
	// are left out of the snapshot and pruned from memory once it is
	// durable. minInt64 (no retention, or no data yet) retains everything.
	cutoff := int64(minInt64)
	if s.opts.RetainRaw > 0 {
		if _, last, ok := s.TimeBounds(); ok {
			cutoff = last + 1 - int64(s.opts.RetainRaw/time.Second)
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
			e := snapEntry{m: m, tiers: ser.captureTiers()}
			e.chunks, e.headPayload, e.headCount = ser.captureChunks(cutoff)
			entries = append(entries, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].m.ID < entries[j].m.ID })

	tmp := filepath.Join(s.opts.Dir, "snapshot.vap.tmp")
	final := filepath.Join(s.opts.Dir, "snapshot.vap")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := writeSnapshotV3(w, s.rollupRes, entries); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// The rename is only durable once the directory entry is; fsync it
	// before touching the WAL, or a crash here could leave neither a
	// reachable snapshot nor the log records it replaced.
	if err := syncDir(s.opts.Dir); err != nil {
		return err
	}
	// The snapshot is durable from here on: record it before retiring the
	// covered segments, so a cleanup failure does not masquerade as a
	// failed (and stats-wise stale) snapshot. The next snapshot retries
	// any segment that could not be removed.
	s.lastSnapUnix.Store(time.Now().Unix())
	// Raw data below the cutoff is durably out of the snapshot now; drop
	// the same chunks from memory (chunk-granular, the identical rule the
	// capture applied, so disk and memory agree on what survived). New
	// chunks sealed since the capture are strictly newer and unaffected.
	if cutoff != minInt64 {
		for _, sh := range s.shards {
			sh.mu.Lock()
			pruned := 0
			for _, ser := range sh.series {
				pruned += ser.pruneRawBefore(cutoff)
			}
			if pruned > 0 {
				sh.version.Add(1)
				s.version.Add(1)
			}
			sh.mu.Unlock()
		}
	}
	if s.wal != nil {
		if err := s.wal.DeleteSegmentsBelow(watermark); err != nil {
			return fmt.Errorf("store: snapshot is durable, but retiring covered WAL segments failed: %w", err)
		}
	}
	return nil
}

// --- v3: chunk-verbatim writer -----------------------------------------

// le append helpers: the v3 writer builds sections in an append buffer
// with explicit little-endian puts instead of reflection-based
// binary.Write, which dominates the legacy writer's profile.
func le16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func le32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// countingWriter tracks the byte offset the v3 writer is at, so section
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
//	header:   magic "VAP3", tier resolutions, meter count, header CRC
//	sections: one per meter, back to back (layout in appendSnapSectionV3)
//	directory: per meter (id, section offset, section length)
//	footer:   directory offset, meter count, directory CRC, magic "VAP3"
//
// The footer-at-the-end arrangement lets the writer stream sections
// without knowing their sizes up front, and lets the loader find the
// directory with two small reads before fanning sections out to workers.
func writeSnapshotV3(w io.Writer, res []int64, entries []snapEntry) error {
	cw := &countingWriter{w: w}
	hdr := make([]byte, 0, 16+8*len(res))
	hdr = append(hdr, snapMagicV3[:]...)
	hdr = le32(hdr, uint32(len(res)))
	for _, r := range res {
		hdr = le64(hdr, uint64(r))
	}
	hdr = le32(hdr, uint32(len(entries)))
	hdr = le32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := cw.Write(hdr); err != nil {
		return err
	}
	dir := make([]byte, 0, len(entries)*snapV3DirEntryLen)
	var buf []byte
	for i := range entries {
		off := cw.n
		var err error
		buf, err = appendSnapSectionV3(buf[:0], res, &entries[i])
		if err != nil {
			return err
		}
		if _, err := cw.Write(buf); err != nil {
			return err
		}
		dir = le64(dir, uint64(entries[i].m.ID))
		dir = le64(dir, uint64(off))
		dir = le64(dir, uint64(len(buf)))
	}
	dirOff := cw.n
	if _, err := cw.Write(dir); err != nil {
		return err
	}
	var foot [snapV3FooterLen]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(dirOff))
	binary.LittleEndian.PutUint32(foot[8:], uint32(len(entries)))
	binary.LittleEndian.PutUint32(foot[12:], crc32.ChecksumIEEE(dir))
	copy(foot[16:], snapMagicV3[:])
	_, err := cw.Write(foot[:])
	return err
}

// appendSnapSectionV3 appends one meter's section:
//
//	id, lon, lat, zone — meter metadata
//	nChunks × { minTS, maxTS, count, payloadLen, payloadCRC, payload }
//	headCount × { ts, value } — the unsealed head, materialized
//	nRes × { nBuckets, buckets } — rollup tiers in header order
//	section CRC over every byte above
//
// Sealed chunk payloads go out verbatim — no decode. The head block is the
// one part that must be materialized: an Encoder cannot resume from its
// payload bytes, so the loader re-appends these raw pairs instead.
func appendSnapSectionV3(buf []byte, res []int64, e *snapEntry) ([]byte, error) {
	zone := []byte(e.m.Zone)
	buf = le64(buf, uint64(e.m.ID))
	buf = le64(buf, math.Float64bits(e.m.Location.Lon))
	buf = le64(buf, math.Float64bits(e.m.Location.Lat))
	buf = le16(buf, uint16(len(zone)))
	buf = append(buf, zone...)
	buf = le32(buf, uint32(len(e.chunks)))
	for _, c := range e.chunks {
		buf = le64(buf, uint64(c.minTS))
		buf = le64(buf, uint64(c.maxTS))
		buf = le32(buf, uint32(c.count))
		buf = le32(buf, uint32(len(c.payload)))
		buf = le32(buf, crc32.ChecksumIEEE(c.payload))
		buf = append(buf, c.payload...)
	}
	var head []Sample
	if e.headCount > 0 {
		var err error
		if head, err = Decode(e.headPayload, e.headCount); err != nil {
			return nil, fmt.Errorf("store: snapshot of meter %d: head block decode: %w", e.m.ID, err)
		}
	}
	buf = le32(buf, uint32(len(head)))
	for _, smp := range head {
		buf = le64(buf, uint64(smp.TS))
		buf = le64(buf, math.Float64bits(smp.Value))
	}
	// Tiers in header order; captureTiers preserves the store's tier
	// order, so a mismatch here is a programming error worth failing on.
	if len(e.tiers) != len(res) {
		return nil, fmt.Errorf("store: snapshot of meter %d captured %d tiers, store maintains %d", e.m.ID, len(e.tiers), len(res))
	}
	for ti := range e.tiers {
		t := &e.tiers[ti]
		if t.res != res[ti] {
			return nil, fmt.Errorf("store: snapshot tier order mismatch for meter %d", e.m.ID)
		}
		buf = le32(buf, uint32(t.len()))
		t.each(func(b *RollupBucket) { buf = appendRollupBucket(buf, b) })
	}
	return le32(buf, crc32.ChecksumIEEE(buf)), nil
}

func appendRollupBucket(buf []byte, b *RollupBucket) []byte {
	buf = le64(buf, uint64(b.Start))
	buf = le64(buf, uint64(b.Count))
	buf = le64(buf, uint64(b.NaN))
	buf = le64(buf, math.Float64bits(b.Sum))
	buf = le64(buf, math.Float64bits(b.Min))
	buf = le64(buf, math.Float64bits(b.Max))
	buf = le64(buf, math.Float64bits(b.First))
	return le64(buf, math.Float64bits(b.Last))
}

// --- v3: parallel loader ------------------------------------------------

// loadSnapshotV3 restores a chunk-verbatim snapshot. It reads the footer
// and directory with two small positioned reads, then fans the per-meter
// sections out across the recovery worker pool: each worker preads only
// its own section (bounding peak memory to the in-flight sections), checks
// its CRCs, builds the complete Series off-lock — sealed chunks installed
// wholesale, head re-appended, tiers installed — and publishes it with one
// brief shard-lock acquisition. Meters hash across shards, so workers
// almost never contend on the same shard lock.
//
// Version accounting mirrors the sample-at-a-time load exactly (+1 for the
// registration, +1 per sample), so a v3-recovered store fingerprints
// identically to a v2-recovered or live-built one.
func (s *Store) loadSnapshotV3(f *os.File, size int64) error {
	if size < int64(16+snapV3FooterLen) {
		return ErrCorrupt
	}
	var foot [snapV3FooterLen]byte
	if _, err := f.ReadAt(foot[:], size-snapV3FooterLen); err != nil {
		return err
	}
	if [4]byte(foot[16:20]) != snapMagicV3 {
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
	var fixed [8]byte
	if _, err := f.ReadAt(fixed[:], 0); err != nil {
		return err
	}
	if [4]byte(fixed[0:4]) != snapMagicV3 {
		return ErrCorrupt
	}
	nRes := int64(binary.LittleEndian.Uint32(fixed[4:]))
	hdrLen := 8 + 8*nRes + 8
	if nRes < 0 || hdrLen > dirOff {
		return ErrCorrupt
	}
	hdr := make([]byte, hdrLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(hdr[:hdrLen-4]) != binary.LittleEndian.Uint32(hdr[hdrLen-4:]) {
		return ErrCorrupt
	}
	fileRes := make([]int64, nRes)
	for i := range fileRes {
		fileRes[i] = int64(binary.LittleEndian.Uint64(hdr[8+8*i:]))
	}
	if int64(binary.LittleEndian.Uint32(hdr[8+8*nRes:])) != nMeters {
		return ErrCorrupt
	}

	var meters, samples, chunks atomic.Int64
	workers := s.recoverWorkers()
	// One section buffer per worker, reused from meter to meter (install
	// keeps nothing of it). A fresh buffer per meter was as many new pages
	// as the whole file, and first-touch page faults are the part of a
	// restart whose price differs from one run to the next.
	bufs := make(chan []byte, workers)
	for w := 0; w < workers; w++ {
		bufs <- nil
	}
	err := exec.ForEach(context.Background(), int(nMeters), workers, func(i int) error {
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
		return s.installSectionV3(id, sec, fileRes, &meters, &samples, &chunks)
	})
	if err != nil {
		return err
	}
	s.recovery.SnapshotMeters = meters.Load()
	s.recovery.SnapshotSamples = samples.Load()
	s.recovery.SnapshotChunks = chunks.Load()
	return nil
}

// installSectionV3 parses one meter section and installs it: the section
// CRC is checked first (it covers every byte including chunk payloads),
// then each chunk's own payload CRC, then the Series is assembled entirely
// off-lock and published into its shard under one brief lock acquisition.
// All counts from the file are clamped against the remaining section bytes
// before allocation, so a corrupt length fails with ErrCorrupt instead of
// a multi-GB make.
func (s *Store) installSectionV3(wantID int64, sec []byte, fileRes []int64, meters, samples, chunksN *atomic.Int64) error {
	corrupt := func(what string) error {
		return fmt.Errorf("store: snapshot section for meter %d: %s: %w", wantID, what, ErrCorrupt)
	}
	if len(sec) < snapV3SectionMin {
		return corrupt("section shorter than minimum")
	}
	body, tail := sec[:len(sec)-4], sec[len(sec)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return corrupt("section checksum mismatch")
	}
	r := &sliceReader{data: body}
	id, err := r.int64()
	if err != nil || id != wantID {
		return corrupt("meter id mismatch")
	}
	lon, err := r.float64()
	if err != nil {
		return corrupt("truncated metadata")
	}
	lat, err := r.float64()
	if err != nil {
		return corrupt("truncated metadata")
	}
	zlen, err := r.uint16()
	if err != nil {
		return corrupt("truncated metadata")
	}
	zone, err := r.bytes(int(zlen))
	if err != nil {
		return corrupt("truncated zone")
	}
	nChunks, err := r.uint32()
	if err != nil {
		return corrupt("truncated chunk count")
	}
	if int64(nChunks)*snapV3ChunkHdrLen > int64(r.remaining()) {
		return corrupt("chunk count exceeds section")
	}
	chunks := make([]*chunk, 0, nChunks)
	total := 0
	for i := uint32(0); i < nChunks; i++ {
		minTS, err := r.int64()
		if err != nil {
			return corrupt("truncated chunk header")
		}
		maxTS, err := r.int64()
		if err != nil {
			return corrupt("truncated chunk header")
		}
		count, err := r.uint32()
		if err != nil {
			return corrupt("truncated chunk header")
		}
		plen, err := r.uint32()
		if err != nil {
			return corrupt("truncated chunk header")
		}
		pcrc, err := r.uint32()
		if err != nil {
			return corrupt("truncated chunk header")
		}
		payload, err := r.bytes(int(plen))
		if err != nil {
			return corrupt("truncated chunk payload")
		}
		if count == 0 || minTS > maxTS {
			return corrupt("malformed chunk bounds")
		}
		if crc32.ChecksumIEEE(payload) != pcrc {
			return corrupt("chunk payload checksum mismatch")
		}
		total += int(count)
		// The chunk gets its own copy of the payload. Aliasing sec pinned
		// the whole section for the life of the store, and since sections
		// carry the rollup tiers the payloads are a tenth of one: a
		// restarted store held the snapshot file's size in dead bytes.
		chunks = append(chunks, &chunk{minTS: minTS, maxTS: maxTS, count: int(count), payload: bytes.Clone(payload)})
	}
	headCount, err := r.uint32()
	if err != nil {
		return corrupt("truncated head count")
	}
	if int64(headCount)*16 > int64(r.remaining()) {
		return corrupt("head count exceeds section")
	}
	head := make([]Sample, headCount)
	for i := range head {
		ts, err := r.int64()
		if err != nil {
			return corrupt("truncated head sample")
		}
		v, err := r.float64()
		if err != nil {
			return corrupt("truncated head sample")
		}
		head[i] = Sample{TS: ts, Value: v}
	}
	file := make([]rollupTier, len(fileRes))
	for ti := range fileRes {
		nb, err := r.uint32()
		if err != nil {
			return corrupt("truncated tier header")
		}
		if int64(nb)*rollupBucketBytes > int64(r.remaining()) {
			return corrupt("tier bucket count exceeds section")
		}
		buckets := make([]RollupBucket, nb)
		for bi := range buckets {
			if err := readRollupBucket(r, &buckets[bi]); err != nil {
				return corrupt("truncated tier bucket")
			}
		}
		file[ti] = loadedTier(fileRes[ti], buckets)
	}
	if r.remaining() != 0 {
		return corrupt("trailing bytes in section")
	}
	m := Meter{ID: id, Location: geo.Point{Lon: lon, Lat: lat}, Zone: ZoneType(zone)}
	// Assemble the whole series off-lock; only the map insert below needs
	// the shard lock, so workers installing into the same shard serialize
	// for nanoseconds, not for the decode/install work.
	ser := NewSeriesRollup(id, s.rollupRes)
	if err := ser.installChunks(chunks, head); err != nil {
		return fmt.Errorf("store: snapshot section for meter %d: %w", id, err)
	}
	if err := ser.installRollups(s.rollupRes, file); err != nil {
		return err
	}
	if err := s.catalog.Put(m); err != nil {
		return err
	}
	n := ser.Len()
	sh := s.shardFor(id)
	sh.mu.Lock()
	if _, dup := sh.series[id]; dup {
		sh.mu.Unlock()
		return corrupt("duplicate meter section")
	}
	sh.series[id] = ser
	sh.version.Add(uint64(1 + n))
	sh.mu.Unlock()
	s.version.Add(uint64(1 + n))
	meters.Add(1)
	samples.Add(int64(n))
	chunksN.Add(int64(len(chunks)))
	return nil
}

// --- loading ------------------------------------------------------------

// loadSnapshot dispatches on the snapshot magic. v3 files are loaded with
// positioned section reads through the worker pool; the legacy v1/v2
// layouts have no directory, so they still load from one whole-file read.
func (s *Store) loadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	s.recovery.SnapshotBytes = st.Size()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return ErrCorrupt
	}
	if magic == snapMagicV3 {
		s.recovery.SnapshotFormat = "v3"
		return s.loadSnapshotV3(f, st.Size())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < 12 {
		return ErrCorrupt
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return fmt.Errorf("store: snapshot checksum mismatch")
	}
	r := &sliceReader{data: body[4:]}
	switch magic {
	case snapMagic:
		s.recovery.SnapshotFormat = "v1"
		return s.loadSnapshotV1(r)
	case snapMagicV2:
		s.recovery.SnapshotFormat = "v2"
		return s.loadSnapshotV2(r)
	default:
		return ErrCorrupt
	}
}

// loadSnapshotV1 loads a legacy (pre-rollup) snapshot. It routes samples
// through the normal append path, which folds them into the configured
// rollup tiers — a v1 file still contains its full raw history, so the
// rebuilt tiers are exact. This is the migration path for old snapshots.
func (s *Store) loadSnapshotV1(r *sliceReader) error {
	nMeters, err := r.uint32()
	if err != nil {
		return ErrCorrupt
	}
	for i := uint32(0); i < nMeters; i++ {
		m, err := readSnapMeterHeader(r)
		if err != nil {
			return err
		}
		if err := s.replayMeter(m); err != nil {
			return err
		}
		nSamples, err := r.uint32()
		if err != nil {
			return ErrCorrupt
		}
		sh := s.shardFor(m.ID)
		sh.mu.Lock()
		var loadErr error
		for j := uint32(0); j < nSamples; j++ {
			ts, err := r.int64()
			if err != nil {
				loadErr = ErrCorrupt
				break
			}
			v, err := r.float64()
			if err != nil {
				loadErr = ErrCorrupt
				break
			}
			if err := s.appendShardLocked(sh, m.ID, Sample{TS: ts, Value: v}); err != nil {
				loadErr = err
				break
			}
		}
		sh.mu.Unlock()
		if loadErr != nil {
			return loadErr
		}
		s.recovery.SnapshotMeters++
		s.recovery.SnapshotSamples += int64(nSamples)
	}
	return nil
}

// readSnapMeterHeader reads the v1/v2 per-meter metadata prefix. The zone
// allocation is clamped by sliceReader.bytes against the remaining input,
// so a corrupt length fails with ErrCorrupt instead of a wild make.
func readSnapMeterHeader(r *sliceReader) (Meter, error) {
	id, err := r.int64()
	if err != nil {
		return Meter{}, ErrCorrupt
	}
	lon, err := r.float64()
	if err != nil {
		return Meter{}, ErrCorrupt
	}
	lat, err := r.float64()
	if err != nil {
		return Meter{}, ErrCorrupt
	}
	zlen, err := r.uint16()
	if err != nil {
		return Meter{}, ErrCorrupt
	}
	zone, err := r.bytes(int(zlen))
	if err != nil {
		return Meter{}, ErrCorrupt
	}
	return Meter{ID: id, Location: geo.Point{Lon: lon, Lat: lat}, Zone: ZoneType(zone)}, nil
}

// loadSnapshotV2 loads the legacy materialized layout: header tier
// resolutions, then per meter its retained raw samples followed by the
// persisted tier bucket arrays. Samples load through appendRaw — no rollup
// folding — because the tiers come from the file; folding too would
// double-count. Persisted tiers whose resolution the store still maintains
// install verbatim; any newly configured resolution is derived from the
// retained raw samples (exact until retention has aged data out,
// best-effort after). Every count read from the file is clamped against
// the remaining bytes before allocation (a corrupt/truncated snapshot must
// fail with ErrCorrupt, not a multi-GB make).
func (s *Store) loadSnapshotV2(r *sliceReader) error {
	nRes, err := r.uint32()
	if err != nil {
		return ErrCorrupt
	}
	if int64(nRes)*8 > int64(r.remaining()) {
		return ErrCorrupt
	}
	fileRes := make([]int64, nRes)
	for i := range fileRes {
		if fileRes[i], err = r.int64(); err != nil {
			return ErrCorrupt
		}
	}
	nMeters, err := r.uint32()
	if err != nil {
		return ErrCorrupt
	}
	for i := uint32(0); i < nMeters; i++ {
		m, err := readSnapMeterHeader(r)
		if err != nil {
			return err
		}
		if err := s.replayMeter(m); err != nil {
			return err
		}
		nSamples, err := r.uint32()
		if err != nil {
			return ErrCorrupt
		}
		sh := s.shardFor(m.ID)
		sh.mu.Lock()
		ser := sh.series[m.ID]
		var loadErr error
		for j := uint32(0); j < nSamples; j++ {
			ts, err := r.int64()
			if err != nil {
				loadErr = ErrCorrupt
				break
			}
			v, err := r.float64()
			if err != nil {
				loadErr = ErrCorrupt
				break
			}
			if err := ser.appendRaw(Sample{TS: ts, Value: v}); err != nil {
				loadErr = err
				break
			}
		}
		if loadErr == nil && nSamples > 0 {
			sh.version.Add(uint64(nSamples))
			s.version.Add(uint64(nSamples))
		}
		if loadErr == nil {
			file := make([]rollupTier, len(fileRes))
			for ti := range fileRes {
				nb, err := r.uint32()
				if err != nil {
					loadErr = ErrCorrupt
					break
				}
				if int64(nb)*rollupBucketBytes > int64(r.remaining()) {
					loadErr = ErrCorrupt
					break
				}
				buckets := make([]RollupBucket, nb)
				for bi := range buckets {
					if err := readRollupBucket(r, &buckets[bi]); err != nil {
						loadErr = ErrCorrupt
						break
					}
				}
				if loadErr != nil {
					break
				}
				file[ti] = loadedTier(fileRes[ti], buckets)
			}
			if loadErr == nil {
				loadErr = ser.installRollups(s.rollupRes, file)
			}
		}
		sh.mu.Unlock()
		if loadErr != nil {
			return loadErr
		}
		s.recovery.SnapshotMeters++
		s.recovery.SnapshotSamples += int64(nSamples)
	}
	return nil
}

func readRollupBucket(r *sliceReader, b *RollupBucket) error {
	var buf [rollupBucketBytes]byte
	if err := r.read(buf[:]); err != nil {
		return err
	}
	b.Start = int64(binary.LittleEndian.Uint64(buf[0:]))
	b.Count = int64(binary.LittleEndian.Uint64(buf[8:]))
	b.NaN = int64(binary.LittleEndian.Uint64(buf[16:]))
	b.Sum = math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))
	b.Min = math.Float64frombits(binary.LittleEndian.Uint64(buf[32:]))
	b.Max = math.Float64frombits(binary.LittleEndian.Uint64(buf[40:]))
	b.First = math.Float64frombits(binary.LittleEndian.Uint64(buf[48:]))
	b.Last = math.Float64frombits(binary.LittleEndian.Uint64(buf[56:]))
	return nil
}

// sliceReader reads little-endian primitives from a byte slice.
type sliceReader struct {
	data []byte
	off  int
}

// remaining returns the unread byte count — the clamp every
// count-before-allocation check compares against.
func (r *sliceReader) remaining() int { return len(r.data) - r.off }

func (r *sliceReader) read(p []byte) error {
	if r.off+len(p) > len(r.data) {
		return io.ErrUnexpectedEOF
	}
	copy(p, r.data[r.off:])
	r.off += len(p)
	return nil
}

// bytes returns the next n bytes without copying (the result aliases the
// reader's backing slice).
func (r *sliceReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, io.ErrUnexpectedEOF
	}
	out := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return out, nil
}

func (r *sliceReader) uint32() (uint32, error) {
	var b [4]byte
	if err := r.read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (r *sliceReader) uint16() (uint16, error) {
	var b [2]byte
	if err := r.read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func (r *sliceReader) int64() (int64, error) {
	var b [8]byte
	if err := r.read(b[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(b[:])), nil
}

func (r *sliceReader) float64() (float64, error) {
	v, err := r.int64()
	return math.Float64frombits(uint64(v)), err
}
