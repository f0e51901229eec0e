// Package stream implements demo scenario S2 step 3: "if the data are fed
// to the system in a short time interval, e.g., every 10 seconds, we can
// observe the changes of patterns in near real time." A Replayer feeds
// stored or generated readings into the store in wall-clock ticks, an
// incremental density tracker maintains the current KDE map online, and a
// Hub fans state updates out to subscribers (the SSE endpoint).
package stream

import (
	"context"
	"errors"
	"sync"
	"time"

	"vap/internal/geo"
	"vap/internal/kde"
	"vap/internal/store"
)

// DataVersion is the two-level data version stamped on events: the
// store-wide mutation counter plus the O(shards) global fingerprint over
// per-shard versions. Either field changing means something mutated; the
// per-selection staleness check is the store's Fingerprint over the
// selection's meters, which the exec-layer cache keys embed.
type DataVersion struct {
	Global      uint64 `json:"global"`
	Fingerprint uint64 `json:"fingerprint"`
}

// Event kinds: the SSE event name subscribers filter on.
const (
	// KindIngest is a replayed ingest batch carrying the updated density
	// state. (Wire name "density" — the event the UI's live map listens
	// to since the first streaming release.)
	KindIngest = "density"
	// KindSnapshot announces a completed durability snapshot: the store
	// persisted its state and retired the covered WAL segments.
	KindSnapshot = "snapshot"
)

// Event is one hub broadcast: an ingest batch that became visible at Seq,
// or a durability snapshot announcement.
type Event struct {
	// Kind discriminates the event (KindIngest, KindSnapshot); empty is
	// KindIngest for wire compatibility with pre-snapshot-event payloads.
	Kind     string         `json:"kind,omitempty"`
	Seq      int64          `json:"seq"`
	DataTime int64          `json:"data_time"` // timestamp of the replayed slice
	Count    int            `json:"count"`     // readings in the batch
	Snapshot *kde.Field     `json:"-"`         // current density map
	Summary  DensitySummary `json:"summary"`
	// WALSegments/WALBytes report the live log footprint after a snapshot
	// retired its covered segments (KindSnapshot only).
	WALSegments int   `json:"wal_segments,omitempty"`
	WALBytes    int64 `json:"wal_bytes,omitempty"`
	// DataVersion is the store's data version after this batch landed.
	// Subscribers holding results keyed to an older version (the exec
	// layer's cache keys) know those are stale the moment they see a
	// larger Global here.
	DataVersion DataVersion `json:"data_version,omitzero"`
}

// DensitySummary is the scalar state pushed to subscribers.
type DensitySummary struct {
	MaxDensity float64   `json:"max_density"`
	HotCell    geo.Point `json:"hot_cell"` // center of the densest cell
	Total      float64   `json:"total"`
}

// Hub broadcasts events to any number of subscribers. Slow subscribers
// drop events rather than blocking the replayer.
type Hub struct {
	mu     sync.Mutex
	subs   map[chan Event]struct{}
	last   Event
	has    bool
	closed bool
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{subs: make(map[chan Event]struct{})} }

// Subscribe returns a channel of events and an unsubscribe function. The
// most recent event (if any) is delivered immediately.
func (h *Hub) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	h.mu.Lock()
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	if h.has {
		ch <- h.last
	}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// Close shuts the hub down for server drain: every subscriber channel
// closes (so blocked SSE handlers return and the HTTP server can finish
// draining), later Subscribe calls get an already-closed channel, and
// Publish becomes a no-op. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// Publish fans an event out; full subscriber buffers drop it.
func (h *Hub) Publish(e Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.last = e
	h.has = true
	for ch := range h.subs {
		select {
		case ch <- e:
		default: // drop for slow consumer
		}
	}
	h.mu.Unlock()
}

// Tracker maintains an online KDE of the most recent reading per meter,
// updated incrementally: replacing one meter's weight only touches the
// kernel footprint of that meter, not the whole map.
type Tracker struct {
	mu     sync.Mutex
	field  *kde.Field
	points map[int64]kde.WeightedPoint // last contribution per meter
	invN   float64                     // Eq. 3's 1/n over the fixed population size
}

// NewTracker builds a tracker over box with the given grid and bandwidth.
// n is the (fixed) population size in the 1/n normalization of Eq. 3.
func NewTracker(box geo.BBox, cols, rows int, bandwidth float64, n int) (*Tracker, error) {
	if bandwidth <= 0 {
		return nil, errors.New("stream: bandwidth must be positive")
	}
	if n <= 0 {
		return nil, errors.New("stream: population size must be positive")
	}
	if box.IsEmpty() {
		return nil, errors.New("stream: empty box")
	}
	if cols <= 0 {
		cols = 64
	}
	if rows <= 0 {
		rows = 64
	}
	return &Tracker{
		field: &kde.Field{
			Box: box, Cols: cols, Rows: rows,
			Values:    make([]float64, cols*rows),
			Bandwidth: bandwidth, Kernel: kde.KernelGaussian,
		},
		points: make(map[int64]kde.WeightedPoint),
		invN:   1 / float64(n),
	}, nil
}

// Update replaces the contribution of meterID with a new weighted location:
// the old reading's stamp is taken out and the new one added, through the
// same kde.Field.Stamp the batch KDE sums, so the live field equals a batch
// estimate of the current points up to the rounding the take-outs leave.
func (t *Tracker) Update(meterID int64, p kde.WeightedPoint) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.points[meterID]; ok {
		t.field.Stamp(old, -t.invN)
	}
	t.points[meterID] = p
	t.field.Stamp(p, t.invN)
}

// Snapshot returns a copy of the current field and its summary.
func (t *Tracker) Snapshot() (*kde.Field, DensitySummary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.field
	cp := &kde.Field{
		Box: f.Box, Cols: f.Cols, Rows: f.Rows,
		Values:    append([]float64(nil), f.Values...),
		Bandwidth: f.Bandwidth, Kernel: f.Kernel,
	}
	var sum DensitySummary
	bestIdx := 0
	for i, v := range f.Values {
		sum.Total += v
		if v > sum.MaxDensity {
			sum.MaxDensity = v
			bestIdx = i
		}
	}
	sum.HotCell = f.CellCenter(bestIdx%f.Cols, bestIdx/f.Cols)
	return cp, sum
}

// Replayer feeds a dataset's readings into a store and tracker in
// data-time order at a configurable wall-clock interval.
type Replayer struct {
	St       *store.Store
	Tracker  *Tracker
	Hub      *Hub
	Interval time.Duration // wall-clock tick (the demo's "every 10 seconds")
	Step     int64         // data seconds advanced per tick (e.g. 3600)
}

// Feed is one meter's reading slice the replayer serves from.
type Feed struct {
	MeterID int64
	Loc     geo.Point
	Samples []store.Sample
}

// Run replays feeds until the context is cancelled or data runs out.
// Readings are appended to the store (if St is non-nil), pushed into the
// tracker, and a Hub event is published per tick. Returns ticks executed.
func (r *Replayer) Run(ctx context.Context, feeds []Feed, from, to int64) (int, error) {
	if r.Step <= 0 {
		r.Step = 3600
	}
	pos := make([]int, len(feeds))
	// Skip to the window start.
	for i, f := range feeds {
		for pos[i] < len(f.Samples) && f.Samples[pos[i]].TS < from {
			pos[i]++
		}
	}
	var ticker *time.Ticker
	if r.Interval > 0 {
		ticker = time.NewTicker(r.Interval)
		defer ticker.Stop()
	}
	ticks := 0
	var seq int64
	for cur := from; cur < to; cur += r.Step {
		if err := ctx.Err(); err != nil {
			return ticks, err
		}
		batch := 0
		var lastTS int64
		for i := range feeds {
			f := &feeds[i]
			for pos[i] < len(f.Samples) && f.Samples[pos[i]].TS < cur+r.Step {
				smp := f.Samples[pos[i]]
				pos[i]++
				batch++
				lastTS = smp.TS
				if r.St != nil {
					if err := r.St.Append(f.MeterID, smp); err != nil && err != store.ErrOutOfOrder {
						return ticks, err
					}
				}
				if r.Tracker != nil {
					r.Tracker.Update(f.MeterID, kde.WeightedPoint{Loc: f.Loc, Weight: smp.Value})
				}
			}
		}
		seq++
		ticks++
		if r.Hub != nil {
			var snap *kde.Field
			var sum DensitySummary
			if r.Tracker != nil {
				snap, sum = r.Tracker.Snapshot()
			}
			var ver DataVersion
			if r.St != nil {
				ver = DataVersion{Global: r.St.Version(), Fingerprint: r.St.GlobalFingerprint()}
			}
			r.Hub.Publish(Event{Kind: KindIngest, Seq: seq, DataTime: lastTS, Count: batch, Snapshot: snap, Summary: sum, DataVersion: ver})
		}
		if ticker != nil {
			select {
			case <-ctx.Done():
				return ticks, ctx.Err()
			case <-ticker.C:
			}
		}
	}
	return ticks, nil
}
