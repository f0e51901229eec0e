package store

import (
	"fmt"
	"sort"
	"sync"
)

// Parallel WAL replay: recovery partitions decoded records by shard and
// applies them on one applier goroutine per shard, pipelined with segment
// reading. Correctness rests on two invariants:
//
//   - A meter maps to exactly one shard, so routing records by shard
//     preserves per-meter order: the scan is sequential (WAL order), each
//     record is appended to its shard's channel in scan order, and a
//     single applier drains each channel in order.
//   - Registration-before-append order is likewise per-meter order, so it
//     survives the same routing.
//
// The scan itself (CRC checks, torn-tail/corruption classification) is
// unchanged — scanSegment does exactly what serial replay does. Only the
// application of decoded records fans out.

// replayBatchSize is how many records a shard's pending buffer holds
// before being flushed to its applier; one shard-lock acquisition covers
// the whole batch.
const replayBatchSize = 2048

// replayRec is one decoded WAL record routed to a shard applier: a meter
// registration (meter != nil) or a sample append.
type replayRec struct {
	meter *Meter
	id    int64
	smp   Sample
}

// segmentIndices returns the live segment indices ascending (sealed plus
// tail) — the replay order.
func (w *WAL) segmentIndices() []uint64 {
	w.mu.Lock()
	idxs := make([]uint64, 0, len(w.sealed)+1)
	for i := range w.sealed {
		idxs = append(idxs, i)
	}
	idxs = append(idxs, w.tailIdx)
	w.mu.Unlock()
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs
}

// replayWAL applies every live WAL record on top of the snapshot state,
// returning the record and segment counts. One recovery worker uses the
// serial path; otherwise records are applied on per-shard appliers. Replay
// may overlap the snapshot, so stale samples (ErrOutOfOrder) are skipped.
// A sample whose meter neither the snapshot nor the log registers fails
// the replay (replayErr): nothing deletes a meter, and AppendBatch refuses
// an unknown one before logging, so only lost or corrupt state leaves one.
func (s *Store) replayWAL(w *WAL) (records int64, segments int, err error) {
	segments = len(w.segmentIndices())
	if recoverWorkers() <= 1 {
		err = w.Replay(
			func(m Meter) error {
				records++
				return s.replayMeter(m)
			},
			func(id int64, smp Sample) error {
				records++
				return replayErr(id, s.replaySample(id, smp))
			})
		return records, segments, err
	}
	records, err = s.replayWALParallel(w)
	return records, segments, err
}

// replayErr is what replay makes of an append's error: a stale sample is
// skipped, and a sample of an unregistered meter is corruption.
func replayErr(id int64, err error) error {
	switch err {
	case ErrOutOfOrder:
		return nil
	case ErrUnknownMeter:
		return fmt.Errorf("store: WAL sample of meter %d, which neither the snapshot nor the WAL registers: %w", id, ErrCorrupt)
	}
	return err
}

// replayWALParallel is the fan-out path: a prefetcher reads segment files
// one ahead of the scan, the scan (sequential, per-segment order) routes
// decoded records into per-shard batches, and one applier goroutine per
// shard applies its batches under the shard lock. Any error — scan
// corruption or an applier failure — aborts the whole replay; appliers
// keep draining their channels after a failure so the router never blocks.
func (s *Store) replayWALParallel(w *WAL) (int64, error) {
	type segData struct {
		path string
		data []byte
		err  error
	}
	idxs := w.segmentIndices()
	segCh := make(chan segData, 1)
	go func() {
		defer close(segCh)
		for _, idx := range idxs {
			path := w.segPath(idx)
			data, err := w.fs.readFile(path)
			segCh <- segData{path: path, data: data, err: err}
			if err != nil {
				return
			}
		}
	}()

	var (
		applyMu  sync.Mutex
		applyErr error
	)
	fail := func(err error) {
		applyMu.Lock()
		if applyErr == nil {
			applyErr = err
		}
		applyMu.Unlock()
	}
	chans := make([]chan []replayRec, len(s.shards))
	var wg sync.WaitGroup
	for si := range chans {
		chans[si] = make(chan []replayRec, 4)
		wg.Add(1)
		go func(si int, ch <-chan []replayRec) {
			defer wg.Done()
			sh := s.shards[si]
			failed := false
			for batch := range ch {
				if failed {
					continue // drain so the router never blocks
				}
				sh.mu.Lock()
				for i := range batch {
					rec := &batch[i]
					var err error
					if rec.meter != nil {
						err = s.putMeterShardLocked(sh, *rec.meter)
					} else {
						err = replayErr(rec.id, s.appendShardLocked(sh, rec.id, rec.smp))
					}
					if err != nil {
						failed = true
						fail(err)
						break
					}
				}
				sh.mu.Unlock()
			}
		}(si, chans[si])
	}

	pending := make([][]replayRec, len(s.shards))
	route := func(si int, rec replayRec) {
		if pending[si] == nil {
			pending[si] = make([]replayRec, 0, replayBatchSize)
		}
		pending[si] = append(pending[si], rec)
		if len(pending[si]) >= replayBatchSize {
			chans[si] <- pending[si]
			pending[si] = nil
		}
	}
	var records int64
	var scanErr error
	for seg := range segCh {
		if seg.err != nil {
			scanErr = seg.err
			break
		}
		_, err := scanSegment(seg.path, seg.data, false,
			func(m Meter) error {
				records++
				mm := m
				route(s.shardIndex(m.ID), replayRec{meter: &mm})
				return nil
			},
			func(id int64, smp Sample) error {
				records++
				route(s.shardIndex(id), replayRec{id: id, smp: smp})
				return nil
			})
		if err != nil {
			scanErr = err
			break
		}
	}
	for si := range chans {
		if scanErr == nil && len(pending[si]) > 0 {
			chans[si] <- pending[si]
		}
		close(chans[si])
	}
	wg.Wait()
	// Unblock the prefetcher if the scan stopped early; it reads at most
	// the remaining segments and exits.
	for range segCh {
	}
	if scanErr != nil {
		return records, scanErr
	}
	applyMu.Lock()
	defer applyMu.Unlock()
	return records, applyErr
}
