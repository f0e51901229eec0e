package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WAL record types.
const (
	recMeter  byte = 1
	recSample byte = 2
	// recCommit is a commit marker: the committer prefixes every batch
	// with one, and since batch N is only ever written after batch N-1's
	// fsync returned, a valid marker at segment offset P proves every
	// byte in [0, P) was fsync-acknowledged. Its payload is its own
	// segment offset, so a random byte run cannot masquerade as one.
	// Recovery uses markers to distinguish interior corruption (damage
	// below an attested offset: acknowledged data, fail loudly) from a
	// torn tail (damage with no attestation after it: the crash
	// interrupted an unacknowledged batch, truncate) — exactly, instead
	// of guessing from whether any later frame happens to be intact,
	// which misfires when a multi-frame batch write tears out of order.
	recCommit byte = 3
)

// walMagic begins every WAL segment file.
var walMagic = [4]byte{'V', 'A', 'P', 'W'}

const (
	walHeaderLen     = 4                    // segment magic
	walFrameOverhead = 9                    // 1 type + 4 length + 4 crc
	markerFrameLen   = walFrameOverhead + 8 // one recCommit frame on disk
	maxWALRecord     = 1 << 20              // sanity bound on a single payload
	segPrefix        = "wal-"               // segment file name prefix
	segSuffix        = ".log"               // segment file name suffix
	legacyWALName    = "wal.log"            // pre-segmentation single-file layout

	// maxBatchBytes bounds the pending group-commit buffer: an enqueue
	// into a full batch blocks until the committer drains it, so a
	// stalled disk applies backpressure to buffered appenders instead of
	// growing the heap without limit. A single oversized enqueue is still
	// accepted into an empty batch so large AppendBatch calls cannot
	// wedge.
	maxBatchBytes = 4 << 20

	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 64 << 20
	// DefaultCommitInterval is the background group-commit flush cadence
	// when Options.CommitInterval is zero.
	DefaultCommitInterval = 2 * time.Millisecond
)

// ErrWALClosed is returned by appends to a closed WAL.
var ErrWALClosed = errors.New("store: WAL closed")

// CorruptError reports interior WAL corruption: a malformed record that is
// followed by valid data, so stopping replay there would silently drop
// records whose appends had already been acknowledged. It wraps ErrCorrupt.
type CorruptError struct {
	Segment string // file path of the corrupt segment
	Offset  int64  // byte offset of the malformed frame
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt WAL record in %s at byte %d: %s", e.Segment, e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// walBatch is one group-commit unit: the frames of every append that
// arrived since the previous commit, written and fsynced together.
type walBatch struct {
	buf    []byte
	forced bool // commit even if buf is empty (Sync)
	rotate bool // rotate to a fresh segment after committing (snapshots)
	done   chan struct{}
	err    error
}

func newWALBatch() *walBatch { return &walBatch{done: make(chan struct{})} }

// WALCommit is a handle on the group commit that will make an enqueued
// record durable. Wait blocks until the batch has been written and fsynced
// (or has failed) and returns the batch's outcome.
type WALCommit struct{ b *walBatch }

// Wait blocks until the record's commit completes.
func (c *WALCommit) Wait() error {
	<-c.b.done
	return c.b.err
}

// WAL is a segmented append-only write-ahead log providing crash
// durability between snapshots. Records are framed with a CRC32 and
// written to numbered segment files (wal-000001.log, ...) that rotate at
// SegmentBytes. Appends from concurrent callers are group-committed: the
// committer goroutine batches everything enqueued since the last commit
// into one write+fsync, so durable throughput scales with concurrency
// instead of fsync count. On open, the tail segment is scanned and
// truncated to the last valid record boundary, so a post-crash append can
// never land behind a torn record.
type WAL struct {
	dir      string
	segBytes int64
	interval time.Duration

	mu       sync.Mutex
	cur      *walBatch
	err      error // sticky commit failure: all later appends fail fast
	closed   bool
	f        *os.File // tail segment, append position
	tailIdx  uint64
	tailSize int64            // bytes written to the tail segment
	writing  bool             // a swapped-out batch is on its way into the tail
	sealed   map[uint64]int64 // sizes of full (rotated-out) segments

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// walOptions configures OpenWAL.
type walOptions struct {
	SegmentBytes   int64
	CommitInterval time.Duration
}

func segmentName(idx uint64) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, idx, segSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil || idx == 0 {
		return 0, false
	}
	return idx, true
}

func (w *WAL) segPath(idx uint64) string { return filepath.Join(w.dir, segmentName(idx)) }

// syncDir fsyncs a directory so renames and file creations inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// listSegments returns the segment indices present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	for _, e := range ents {
		if idx, ok := parseSegmentName(e.Name()); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// OpenWAL opens (or creates) the segmented log in dir for appending. A
// legacy single-file wal.log is migrated to wal-000001.log on first open.
// The tail segment is truncated to its last valid record boundary, which
// is the crash-recovery guarantee: appends resume exactly where the valid
// prefix ends, never behind garbage left by a torn write.
func OpenWAL(dir string, opts walOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.CommitInterval <= 0 {
		opts.CommitInterval = DefaultCommitInterval
	}
	idxs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Migrate the legacy single-file layout: the old wal.log becomes the
	// first segment. Both layouts present at once is an ambiguous state we
	// refuse to guess about.
	legacy := filepath.Join(dir, legacyWALName)
	if _, err := os.Stat(legacy); err == nil {
		if len(idxs) > 0 {
			return nil, fmt.Errorf("store: both %s and wal segments exist in %s; remove one", legacyWALName, dir)
		}
		if err := os.Rename(legacy, filepath.Join(dir, segmentName(1))); err != nil {
			return nil, err
		}
		if err := syncDir(dir); err != nil {
			return nil, err
		}
		idxs = []uint64{1}
	}
	w := &WAL{
		dir:      dir,
		segBytes: opts.SegmentBytes,
		interval: opts.CommitInterval,
		cur:      newWALBatch(),
		sealed:   make(map[uint64]int64),
		wake:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if len(idxs) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
	} else {
		for _, idx := range idxs[:len(idxs)-1] {
			st, err := os.Stat(w.segPath(idx))
			if err != nil {
				return nil, err
			}
			w.sealed[idx] = st.Size()
		}
		tail := idxs[len(idxs)-1]
		size, err := w.repairTail(tail)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(w.segPath(tail), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f, w.tailIdx, w.tailSize = f, tail, size
	}
	go w.run()
	return w, nil
}

// prepareSegment creates a fresh segment file with the magic header and
// makes it durable (file fsync, then directory fsync). This is the one
// copy of the creation protocol; both the initial open and rotation use
// it, so crash-safety fixes cannot drift between the two paths.
func (w *WAL) prepareSegment(idx uint64) (*os.File, error) {
	f, err := os.OpenFile(w.segPath(idx), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// createSegment prepares a fresh segment and installs it as the tail.
func (w *WAL) createSegment(idx uint64) error {
	f, err := w.prepareSegment(idx)
	if err != nil {
		return err
	}
	w.f, w.tailIdx, w.tailSize = f, idx, walHeaderLen
	return nil
}

// repairTail scans the tail segment and truncates it to the last valid
// record boundary. It returns the repaired size. A file too short to hold
// the magic (a crash between segment creation and the header write) is
// reinitialized; a malformed record with valid records after it is
// interior corruption and fails the open.
func (w *WAL) repairTail(idx uint64) (int64, error) {
	path := w.segPath(idx)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < walHeaderLen {
		// Torn segment creation: rewrite the header in place.
		if err := os.WriteFile(path, walMagic[:], 0o644); err != nil {
			return 0, err
		}
		if err := syncDir(w.dir); err != nil {
			return 0, err
		}
		return walHeaderLen, nil
	}
	validEnd, err := scanSegment(path, data, true, nil, nil)
	if err != nil {
		return 0, err
	}
	if validEnd < int64(len(data)) {
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return 0, err
		}
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return validEnd, nil
}

// --- framing ------------------------------------------------------------

// appendFrame frames one record onto dst: type, length, payload, crc.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(payload))
	return append(dst, tail[:]...)
}

func meterPayload(m Meter) []byte {
	zone := []byte(m.Zone)
	payload := make([]byte, 26+len(zone))
	binary.LittleEndian.PutUint64(payload[0:], uint64(m.ID))
	binary.LittleEndian.PutUint64(payload[8:], float64Bits(m.Location.Lon))
	binary.LittleEndian.PutUint64(payload[16:], float64Bits(m.Location.Lat))
	binary.LittleEndian.PutUint16(payload[24:], uint16(len(zone)))
	copy(payload[26:], zone)
	return payload
}

func samplePayload(dst []byte, meterID int64, s Sample) []byte {
	var payload [24]byte
	binary.LittleEndian.PutUint64(payload[0:], uint64(meterID))
	binary.LittleEndian.PutUint64(payload[8:], uint64(s.TS))
	binary.LittleEndian.PutUint64(payload[16:], float64Bits(s.Value))
	return append(dst, payload[:]...)
}

// --- appending (group commit) --------------------------------------------

// enqueue adds framed records to the current batch. When syncWait is set
// the committer is woken immediately and the returned commit handle is
// non-nil; otherwise the record rides the next background flush (at most
// CommitInterval away) and the handle is nil. A sticky commit failure or a
// closed WAL fails fast here, before the caller mutates any other state.
// An enqueue into a batch already holding maxBatchBytes blocks until the
// committer drains it (backpressure), then retries against the fresh one.
func (w *WAL) enqueue(frames []byte, syncWait bool) (*WALCommit, error) {
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return nil, ErrWALClosed
		}
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return nil, err
		}
		b := w.cur
		if len(b.buf) > 0 && len(b.buf)+len(frames) > maxBatchBytes {
			w.mu.Unlock()
			w.signal()
			<-b.done // backpressure: wait out the in-flight/full batch
			continue
		}
		b.buf = append(b.buf, frames...)
		w.mu.Unlock()
		if !syncWait {
			return nil, nil
		}
		w.signal()
		return &WALCommit{b: b}, nil
	}
}

func (w *WAL) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// AppendMeter logs a meter registration.
func (w *WAL) AppendMeter(m Meter, syncWait bool) (*WALCommit, error) {
	return w.enqueue(appendFrame(nil, recMeter, meterPayload(m)), syncWait)
}

// AppendSamples logs a batch of samples for one meter as a single enqueue,
// so the whole batch lands in one commit.
func (w *WAL) AppendSamples(meterID int64, smps []Sample, syncWait bool) (*WALCommit, error) {
	frames := make([]byte, 0, len(smps)*(24+walFrameOverhead))
	for _, s := range smps {
		frames = appendFrame(frames, recSample, samplePayload(nil, meterID, s))
	}
	return w.enqueue(frames, syncWait)
}

// Sync forces a commit of everything enqueued so far and waits for it.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	b := w.cur
	b.forced = true
	w.mu.Unlock()
	w.signal()
	c := WALCommit{b: b}
	return c.Wait()
}

// run is the committer: the only goroutine that writes segment files. It
// commits promptly when a sync appender (or Sync/CutSegment) signals, and
// on the CommitInterval ticker so buffered, non-waited appends still reach
// disk within one interval.
func (w *WAL) run() {
	ticker := time.NewTicker(w.interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.quit:
			w.commit()
			close(w.done)
			return
		case <-w.wake:
			w.commit()
		case <-ticker.C:
			w.commit()
		}
	}
}

// commit swaps out the current batch and makes it durable: one write, one
// fsync, and a rotation when the segment crossed SegmentBytes (or the
// batch requested one). Failures are sticky — once a commit fails the WAL
// refuses further appends, so in-memory state can never run ahead of a log
// that silently stopped persisting.
func (w *WAL) commit() {
	// Let appenders that are already runnable finish enqueueing before the
	// batch is sealed: a wave of concurrent sync appends then shares one
	// fsync instead of being split across several partial commits. Costs
	// one scheduler pass (~µs) on the solo-appender path.
	runtime.Gosched()
	w.mu.Lock()
	b := w.cur
	if len(b.buf) == 0 && !b.forced && !b.rotate {
		w.mu.Unlock()
		return
	}
	w.cur = newWALBatch()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		b.err = err
		close(b.done)
		return
	}
	f := w.f
	w.writing = true
	w.mu.Unlock()

	err := w.writeBatch(f, b)
	w.mu.Lock()
	w.writing = false
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	b.err = err
	close(b.done)
}

func (w *WAL) writeBatch(f *os.File, b *walBatch) error {
	if len(b.buf) > 0 {
		w.mu.Lock()
		off := w.tailSize
		w.mu.Unlock()
		// Lead with the commit marker. This batch is only being written
		// because every previous commit's fsync returned, so a marker
		// persisted at offset `off` — even by a torn, never-acknowledged
		// write — truthfully attests that [0, off) is durable. The
		// payload repeats the offset so recovery can reject byte runs
		// that merely look like markers.
		var pos [8]byte
		binary.LittleEndian.PutUint64(pos[:], uint64(off))
		out := appendFrame(make([]byte, 0, markerFrameLen+len(b.buf)), recCommit, pos[:])
		out = append(out, b.buf...)
		if _, err := f.Write(out); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		w.mu.Lock()
		w.tailSize += int64(len(out))
		w.mu.Unlock()
	}
	w.mu.Lock()
	size := w.tailSize
	w.mu.Unlock()
	if size >= w.segBytes || (b.rotate && size > walHeaderLen) {
		return w.rotate()
	}
	return nil
}

// rotate seals the tail segment and opens the next one. The old segment is
// already fsynced (every commit syncs), so after the new segment and the
// directory are synced, all sealed segments are complete by construction —
// torn records can only ever exist in the tail.
func (w *WAL) rotate() error {
	w.mu.Lock()
	oldF, oldIdx, oldSize := w.f, w.tailIdx, w.tailSize
	newIdx := w.tailIdx + 1
	w.mu.Unlock()

	f, err := w.prepareSegment(newIdx)
	if err != nil {
		return err
	}
	if err := oldF.Close(); err != nil {
		f.Close()
		return err
	}
	w.mu.Lock()
	w.sealed[oldIdx] = oldSize
	w.f, w.tailIdx, w.tailSize = f, newIdx, walHeaderLen
	w.mu.Unlock()
	return nil
}

// CutSegment commits everything pending and rotates to a fresh tail
// segment, returning the new tail index W. Every record enqueued before
// the call lives in a segment with index < W; a snapshot capturing
// in-memory state after CutSegment returns therefore covers all of them,
// and DeleteSegmentsBelow(W) is safe once that snapshot is durable. If the
// tail is already bare — nothing written, nothing pending, and no batch
// the committer has swapped out but not yet written — the rotation is
// skipped and the current index is returned.
func (w *WAL) CutSegment() (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	if w.tailSize == walHeaderLen && len(w.cur.buf) == 0 && !w.writing {
		idx := w.tailIdx
		w.mu.Unlock()
		return idx, nil
	}
	b := w.cur
	b.forced = true
	b.rotate = true
	w.mu.Unlock()
	w.signal()
	c := WALCommit{b: b}
	if err := c.Wait(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	idx := w.tailIdx
	w.mu.Unlock()
	return idx, nil
}

// DeleteSegmentsBelow removes every sealed segment with index < idx (all
// of whose records are covered by a durable snapshot) and fsyncs the
// directory.
func (w *WAL) DeleteSegmentsBelow(idx uint64) error {
	w.mu.Lock()
	var victims []uint64
	for i := range w.sealed {
		if i < idx {
			victims = append(victims, i)
		}
	}
	w.mu.Unlock()
	// Untrack a segment only once its file is actually gone: a failed
	// remove stays in the sealed map, keeps counting in SegmentStats, and
	// is retried by the next snapshot instead of leaking on disk.
	var firstErr error
	removed := victims[:0]
	for _, i := range victims {
		if err := os.Remove(w.segPath(i)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed = append(removed, i)
	}
	w.mu.Lock()
	for _, i := range removed {
		delete(w.sealed, i)
	}
	w.mu.Unlock()
	if len(removed) > 0 {
		if err := syncDir(w.dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SegmentStats returns the number of live segment files and their total
// on-disk bytes.
func (w *WAL) SegmentStats() (segments int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, sz := range w.sealed {
		bytes += sz
	}
	return len(w.sealed) + 1, bytes + w.tailSize
}

// Close commits everything pending and closes the tail segment. Appends
// after Close fail with ErrWALClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWALClosed
	}
	w.closed = true
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	w.mu.Lock()
	err := w.err
	f := w.f
	w.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- replay --------------------------------------------------------------

// Replay reads every live segment in order, invoking the callbacks per
// record. OpenWAL has already truncated any torn tail, so a malformed
// record seen here is interior corruption and is reported as a
// CorruptError carrying the segment path and byte offset — never silently
// skipped, because records after it were acknowledged appends.
func (w *WAL) Replay(onMeter func(Meter) error, onSample func(int64, Sample) error) error {
	for _, idx := range w.segmentIndices() {
		path := w.segPath(idx)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := scanSegment(path, data, false, onMeter, onSample); err != nil {
			return err
		}
	}
	return nil
}

// scanSegment walks the frames of one segment, dispatching each valid
// record to the callbacks (which may be nil: scan only). It returns the
// byte offset just past the last valid frame.
//
// A malformed frame in the tail is classified by commit-marker
// attestation, not by guessing from later frames. A valid marker at
// offset P proves [0, P) was fsync-acknowledged (markers are only ever
// written after the previous commit's fsync returned), so damage below
// some marker is interior corruption — acknowledged records were lost,
// replay must fail loudly with the offset. Damage with no marker after it
// sits entirely in the last, unacknowledged batch: a torn tail, and the
// scan stops cleanly so the caller truncates. (A CRC-valid non-marker
// frame after the damage attests nothing: a multi-frame batch write can
// tear out of order, persisting a later frame while an earlier one is
// garbage, and none of it was acknowledged.) Sealed (non-tail) segments
// were fully synced before rotation, so isTail=false treats any
// malformation as interior corruption.
func scanSegment(path string, data []byte, isTail bool, onMeter func(Meter) error, onSample func(int64, Sample) error) (int64, error) {
	if len(data) < walHeaderLen {
		if isTail {
			return 0, nil
		}
		return 0, &CorruptError{Segment: path, Offset: 0, Reason: "segment shorter than header"}
	}
	if [4]byte(data[:4]) != walMagic {
		return 0, fmt.Errorf("store: %s is not a VAP WAL segment", path)
	}
	off := walHeaderLen
	for off < len(data) {
		typ, payload, end, reason := parseFrame(data, off)
		if reason != "" {
			if !isTail {
				return int64(off), &CorruptError{Segment: path, Offset: int64(off), Reason: reason}
			}
			// Resync-scan for a commit marker attesting past the damage.
			// Marker payloads repeat their own offset, so a random byte
			// run at j cannot pose as one. Only marker frames matter here,
			// so skip other bytes before paying for a frame parse (which
			// can CRC up to maxWALRecord bytes per candidate).
			for j := off + 1; j+markerFrameLen <= len(data); j++ {
				if data[j] != recCommit {
					continue
				}
				if typJ, _, _, r := parseFrame(data, j); r == "" && typJ == recCommit {
					return int64(off), &CorruptError{
						Segment: path, Offset: int64(off),
						Reason: fmt.Sprintf("%s (a commit marker at byte %d attests the damaged range was acknowledged: interior corruption, not a torn tail)", reason, j),
					}
				}
			}
			return int64(off), nil
		}
		if err := dispatchRecord(path, int64(off), typ, payload, onMeter, onSample); err != nil {
			return int64(off), err
		}
		off = end
	}
	return int64(off), nil
}

// parseFrame validates the frame at data[off:]. On success reason is empty
// and end is the offset just past the frame; otherwise reason says what is
// malformed.
func parseFrame(data []byte, off int) (typ byte, payload []byte, end int, reason string) {
	if off+5 > len(data) {
		return 0, nil, 0, "truncated frame header"
	}
	typ = data[off]
	n := int(binary.LittleEndian.Uint32(data[off+1:]))
	switch typ {
	case recSample:
		if n != 24 {
			return 0, nil, 0, fmt.Sprintf("sample record with length %d", n)
		}
	case recMeter:
		if n < 26 || n > maxWALRecord {
			return 0, nil, 0, fmt.Sprintf("meter record with length %d", n)
		}
	case recCommit:
		if n != 8 {
			return 0, nil, 0, fmt.Sprintf("commit marker with length %d", n)
		}
	default:
		return 0, nil, 0, fmt.Sprintf("unknown record type %d", typ)
	}
	end = off + 5 + n + 4
	if end > len(data) {
		return 0, nil, 0, "truncated frame body"
	}
	payload = data[off+5 : off+5+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+5+n:]) {
		return 0, nil, 0, "checksum mismatch"
	}
	if typ == recCommit && binary.LittleEndian.Uint64(payload) != uint64(off) {
		// A marker must name its own offset; anything else is a stale or
		// coincidental byte pattern and attests nothing.
		return 0, nil, 0, "commit marker offset mismatch"
	}
	return typ, payload, end, ""
}

// dispatchRecord decodes a CRC-valid payload and invokes the callback.
func dispatchRecord(path string, off int64, typ byte, payload []byte, onMeter func(Meter) error, onSample func(int64, Sample) error) error {
	switch typ {
	case recMeter:
		zlen := int(binary.LittleEndian.Uint16(payload[24:]))
		if len(payload) != 26+zlen {
			return &CorruptError{Segment: path, Offset: off, Reason: "meter record zone length mismatch"}
		}
		if onMeter == nil {
			return nil
		}
		return onMeter(Meter{
			ID: int64(binary.LittleEndian.Uint64(payload[0:])),
			Location: pointFromBits(
				binary.LittleEndian.Uint64(payload[8:]),
				binary.LittleEndian.Uint64(payload[16:])),
			Zone: ZoneType(payload[26 : 26+zlen]),
		})
	case recSample:
		if onSample == nil {
			return nil
		}
		id := int64(binary.LittleEndian.Uint64(payload[0:]))
		return onSample(id, Sample{
			TS:    int64(binary.LittleEndian.Uint64(payload[8:])),
			Value: float64FromBits(binary.LittleEndian.Uint64(payload[16:])),
		})
	case recCommit:
		// Markers carry no application data; they only inform recovery.
		return nil
	}
	return nil
}
