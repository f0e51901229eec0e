package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"vap/internal/gen"
)

// Fixed sizes of the benchmark (README "Sizes"). Every size that the
// latency of a request depends on is a constant, so that a different
// -seed changes which meters and which windows are asked for, never how
// much work one request is.
const (
	datasetDays   = 365
	dashSetSize   = 48 // < 64 result-cache entries: the whole set stays cached
	dashBoxMeters = 64 // meters inside the dashboard bbox
	wideBoxMeters = 56 // meters inside the export bbox: 56 x 720 h = 40 320 rows
	listMeters    = 8  // explicit meter lists stay at or under the fan-out guard
	dayS          = 86400
	hourS         = 3600
	narrowMinDays = 90
	narrowMaxDays = 160 // 460 x 160 x 24 = 1.77 M samples < the 2 M interactive cutoff
	tickHz        = 25
	backfillDays  = 90
	backfillFrame = 720 // samples per meter per frame
	backfillGroup = 20  // meters per request
	brushesPerSes = 8
	seriesPerSes  = 3
	flowsPerSes   = 4
)

// safeFanout is the seed-bug guard: at the parent commit a fan-out scan
// over n meters slices out of range when (Chunks-1)*ceil(n/Chunks) > n;
// with -workers 2 (Chunks = min(8, n)) every n <= 8 and every n >= 49 is
// safe, so the generators emit only those sizes.
func safeFanout(n int) bool { return n <= 8 || n >= 49 }

type meterInfo struct {
	ID       int64
	Lon, Lat float64
	Zone     string
}

// world is the benchmark's own copy of what vapd was started with: the
// generated dataset and a catalog view built from it, independent of the
// store's catalog and spatial index.
type world struct {
	ds     *gen.Dataset
	meters []meterInfo // ascending ID
	byID   map[int64]int
	start  int64 // first sample
	end    int64 // one hour past the last sample

	seed       int64
	genSeconds float64 // how long gen.Generate took
}

func newWorld(seed int64) *world {
	t0 := time.Now()
	ds := gen.Generate(gen.Config{Seed: seed, Days: datasetDays})
	w := &world{ds: ds, byID: map[int64]int{}, start: ds.Start.Unix(), seed: seed, genSeconds: time.Since(t0).Seconds()}
	w.end = w.start + int64(ds.Hours)*hourS
	for i, c := range ds.Customers {
		w.meters = append(w.meters, meterInfo{c.Meter.ID, c.Meter.Location.Lon, c.Meter.Location.Lat, string(c.Meter.Zone)})
		w.byID[c.Meter.ID] = i
	}
	sort.Slice(w.meters, func(i, j int) bool { return w.meters[i].ID < w.meters[j].ID })
	return w
}

// selection is a WHERE clause's meter predicate plus the ids it resolves
// to under the benchmark's own catalog.
type selection struct {
	Kind string     `json:"kind"` // all | zone | bbox | meters
	Zone string     `json:"zone,omitempty"`
	Box  [4]float64 `json:"box,omitempty"` // minLon, minLat, maxLon, maxLat
	IDs  []int64    `json:"-"`             // resolved, ascending
}

func (w *world) selAll() selection {
	s := selection{Kind: "all"}
	for _, m := range w.meters {
		s.IDs = append(s.IDs, m.ID)
	}
	return s
}

func (w *world) selZone(zone string) selection {
	s := selection{Kind: "zone", Zone: zone}
	for _, m := range w.meters {
		if m.Zone == zone {
			s.IDs = append(s.IDs, m.ID)
		}
	}
	return s
}

func (w *world) selMeters(ids []int64) selection {
	s := selection{Kind: "meters", IDs: append([]int64(nil), ids...)}
	sort.Slice(s.IDs, func(i, j int) bool { return s.IDs[i] < s.IDs[j] })
	return s
}

// selBox returns the box around the city centre holding exactly k
// meters: its half-width lies midway between the k-th and (k+1)-th
// Chebyshev distance, so no meter sits on an edge.
func (w *world) selBox(k int) selection {
	const aspect = 1.8 // degrees of longitude per degree of latitude at 55 N, roughly
	c := w.ds.Center
	d := make([]float64, len(w.meters))
	for i, m := range w.meters {
		d[i] = math.Max(math.Abs(m.Lon-c.Lon)/aspect, math.Abs(m.Lat-c.Lat))
	}
	sort.Float64s(d)
	h := d[k-1] + 1e-4
	if k < len(d) {
		h = (d[k-1] + d[k]) / 2
	}
	s := selection{Kind: "bbox", Box: [4]float64{c.Lon - aspect*h, c.Lat - h, c.Lon + aspect*h, c.Lat + h}}
	for _, m := range w.meters {
		if m.Lon >= s.Box[0] && m.Lon <= s.Box[2] && m.Lat >= s.Box[1] && m.Lat <= s.Box[3] {
			s.IDs = append(s.IDs, m.ID)
		}
	}
	return s
}

// safeZones lists the zones whose size passes the fan-out guard under
// this seed, largest first (residential is 380 of 460 under every seed).
func (w *world) safeZones() []selection {
	var out []selection
	for _, z := range []string{"residential", "commercial", "industrial", "mixed"} {
		if s := w.selZone(z); len(s.IDs) > 0 && safeFanout(len(s.IDs)) {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].IDs) > len(out[j].IDs) })
	return out
}

// stmt is one VQL statement in structured form — what the oracle
// evaluates — together with its text.
type stmt struct {
	ID      int       `json:"id"`
	Class   string    `json:"class"` // dash | narrow | wide
	Sel     selection `json:"sel"`
	From    int64     `json:"from"`
	To      int64     `json:"to"`
	Bucket  string    `json:"bucket,omitempty"`
	ByZone  bool      `json:"by_zone,omitempty"`
	ByMeter bool      `json:"by_meter,omitempty"`
	Aggs    []string  `json:"aggs"`
	SQL     string    `json:"sql"`
}

func ff(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func (s *stmt) render() {
	var cols, keys, where []string
	if s.Bucket != "" {
		keys = append(keys, "bucket("+s.Bucket+")")
	}
	if s.ByMeter {
		keys = append(keys, "meter")
	}
	if s.ByZone {
		keys = append(keys, "zone")
	}
	cols = append(cols, keys...)
	for _, a := range s.Aggs {
		if a == "count" {
			cols = append(cols, "count(*)")
		} else {
			cols = append(cols, a+"(value)")
		}
	}
	switch s.Sel.Kind {
	case "zone":
		where = append(where, "zone = '"+s.Sel.Zone+"'")
	case "bbox":
		b := s.Sel.Box
		where = append(where, "bbox("+ff(b[0])+", "+ff(b[1])+", "+ff(b[2])+", "+ff(b[3])+")")
	case "meters":
		if len(s.Sel.IDs) == 1 {
			where = append(where, "meter = "+strconv.FormatInt(s.Sel.IDs[0], 10))
		} else {
			parts := make([]string, len(s.Sel.IDs))
			for i, id := range s.Sel.IDs {
				parts[i] = strconv.FormatInt(id, 10)
			}
			where = append(where, "meter IN ("+strings.Join(parts, ", ")+")")
		}
	}
	where = append(where, fmt.Sprintf("time >= %d AND time < %d", s.From, s.To))
	s.SQL = "SELECT " + strings.Join(cols, ", ") + " FROM meters WHERE " + strings.Join(where, " AND ")
	if len(keys) > 0 {
		s.SQL += " GROUP BY " + strings.Join(keys, ", ")
	}
}

// aggCombos vary the select list so that statements sharing a selection
// and a window (the mixed workload pins every window to the last month)
// are still distinct plans.
var aggCombos = [][]string{{"sum", "count"}, {"mean"}, {"min", "max"}, {"sum"}, {"max"}, {"mean", "count"}}

func pickMeters(w *world, rng *rand.Rand, n int) []int64 {
	perm := rng.Perm(len(w.meters))[:n]
	ids := make([]int64, n)
	for i, p := range perm {
		ids[i] = w.meters[p].ID
	}
	return ids
}

// dashSet builds the 48 cheap dashboard statements: 12 zone totals over
// 30 days, 12 daily profiles of an 8-meter list, 12 hourly profiles of
// one meter over a week, 12 bbox day totals. With lastMonth the windows
// are pinned to the end of the data (the mixed workload); otherwise each
// statement gets its own day-aligned window somewhere in the year.
func dashSet(w *world, rng *rand.Rand, lastMonth bool) []stmt {
	zones := w.safeZones()
	if len(zones) > 2 {
		zones = zones[:2]
	}
	boxes := []selection{w.selBox(dashBoxMeters), w.selBox(dashBoxMeters + 32)}
	window := func(days int) (int64, int64) {
		if lastMonth {
			return w.end - int64(days)*dayS, w.end
		}
		d0 := int64(rng.Intn(datasetDays - days))
		return w.start + d0*dayS, w.start + (d0+int64(days))*dayS
	}
	var out []stmt
	add := func(s stmt) {
		s.ID = len(out)
		s.Class = "dash"
		s.render()
		out = append(out, s)
	}
	per := dashSetSize / 4
	for j := 0; j < per; j++ { // zone totals over a month
		from, to := window(30)
		add(stmt{Sel: zones[(j/len(aggCombos))%len(zones)], From: from, To: to, ByZone: true, Aggs: aggCombos[j%len(aggCombos)]})
	}
	for j := 0; j < per; j++ { // daily profile of a meter list
		from, to := window(30)
		add(stmt{Sel: w.selMeters(pickMeters(w, rng, listMeters)), From: from, To: to, Bucket: "daily", Aggs: aggCombos[j%len(aggCombos)]})
	}
	for j := 0; j < per; j++ { // hourly profile of one meter
		from, to := window(7)
		add(stmt{Sel: w.selMeters(pickMeters(w, rng, 1)), From: from, To: to, Bucket: "hourly", Aggs: aggCombos[j%len(aggCombos)]})
	}
	for j := 0; j < per; j++ { // bbox day totals
		from, to := window(30)
		add(stmt{Sel: boxes[(j/len(aggCombos))%len(boxes)], From: from, To: to, Bucket: "daily", Aggs: aggCombos[j%len(aggCombos)]})
	}
	return out
}

// narrowShapes is the repeating cycle of narrow scans: 6 raw decodes
// (weekly / monthly buckets or no bucket at all) and 4 tier-served daily
// scans per 10 — the 60/40 split of the issue — over the two large safe
// selections.
var narrowShapes = []struct {
	bucket          string
	byZone, byMeter bool
	zone            bool // residential instead of all meters
}{
	{bucket: "weekly"}, {bucket: "daily"}, {byZone: true}, {bucket: "daily", zone: true}, {bucket: "monthly"},
	{bucket: "daily"}, {byMeter: true, zone: true}, {bucket: "weekly", zone: true}, {bucket: "daily"}, {byZone: true},
}

// scanStream is an endless, never-repeating statement stream: 4 narrow
// then 1 wide. Every window starts at its own hour offset, so no two
// statements share a cache key.
type scanStream struct {
	w       *world
	rng     *rand.Rand
	starts  []int // unused hour offsets, shuffled
	n       int
	narrowN int
	all     selection
	zone    selection
	wideBox selection
}

// newScanStream draws its windows from the hour offsets congruent to
// phase modulo stride, so streams of different phases never collide.
func newScanStream(w *world, rng *rand.Rand, phase, stride int) *scanStream {
	s := &scanStream{w: w, rng: rng, all: w.selAll(), wideBox: w.selBox(wideBoxMeters)}
	s.zone = s.all
	if z := w.safeZones(); len(z) > 0 {
		s.zone = z[0]
	}
	s.starts = rng.Perm((datasetDays - narrowMaxDays) * 24 / stride)
	for i := range s.starts {
		s.starts[i] = s.starts[i]*stride + phase
	}
	return s
}

// scanStreams returns the scan workload's three disjoint streams: the
// HTTP client's, the wire client's and the correctness gate's.
func scanStreams(w *world, seed int64) []*scanStream {
	out := make([]*scanStream, 3)
	for i := range out {
		out[i] = newScanStream(w, rand.New(rand.NewSource(seed+int64(i)*1_000_003)), i, len(out))
	}
	return out
}

func (s *scanStream) next() stmt {
	if s.n%5 == 4 {
		return s.wide()
	}
	return s.narrow()
}

// take starts a statement on the next unused hour offset.
func (s *scanStream) take(class string) stmt {
	if s.n >= len(s.starts) {
		panic("bench: scan stream exhausted its unique windows")
	}
	st := stmt{ID: s.n, Class: class, From: s.w.start + int64(s.starts[s.n])*hourS}
	s.n++
	return st
}

func (s *scanStream) wide() stmt {
	st := s.take("wide")
	st.Sel, st.To = s.wideBox, st.From+30*dayS
	st.Bucket, st.ByMeter, st.Aggs = "hourly", true, []string{"sum"}
	st.render()
	return st
}

func (s *scanStream) narrow() stmt {
	st := s.take("narrow")
	sh := narrowShapes[s.narrowN%len(narrowShapes)]
	s.narrowN++
	st.Sel = s.all
	if sh.zone {
		st.Sel = s.zone
	}
	days := narrowMinDays + s.rng.Intn(narrowMaxDays-narrowMinDays+1)
	st.To = st.From + int64(days)*dayS
	st.Bucket, st.ByZone, st.ByMeter = sh.bucket, sh.byZone, sh.byMeter
	st.Aggs = []string{"sum", "count"}
	st.render()
	return st
}

// request is one HTTP GET of the explore script.
type request struct {
	Class string `json:"class"` // reduce | flow | view
	Path  string `json:"path"`
}

// exploreSession is session i of the analyst script: a cold t-SNE, eight
// brushes and the scatter on that view, a cold flow map, the marker map,
// three series.
func exploreSession(w *world, rng *rand.Rand, seed int64, i int) []request {
	view := fmt.Sprintf("method=tsne&granularity=daily&seed=%d", seed*1000+int64(i))
	out := []request{{"reduce", "/api/reduce?" + view}}
	for b := 0; b < brushesPerSes; b++ {
		// A strip anchored on one edge of the unit square always holds a
		// point (the embedding is normalised to touch all four edges).
		a := 0.2 + 0.6*rng.Float64()
		box := [4]float64{0, 0, 1, 1}
		switch b % 4 {
		case 0:
			box[2] = a
		case 1:
			box[0] = a
		case 2:
			box[3] = a
		default:
			box[1] = a
		}
		out = append(out, request{"view", fmt.Sprintf("/api/patterns?%s&bx0=%s&by0=%s&bx1=%s&by1=%s", view, ff(box[0]), ff(box[1]), ff(box[2]), ff(box[3]))})
	}
	out = append(out, request{"view", "/view/scatter.svg?" + view})
	// Two distinct 4-hour buckets, fresh per request, so the flow is cold.
	for k := 0; k < flowsPerSes; k++ {
		b1 := rng.Intn(datasetDays*6 - 1)
		b2 := b1 + 1 + rng.Intn(datasetDays*6-1-b1)
		t1, t2 := w.start+int64(b1)*4*hourS, w.start+int64(b2)*4*hourS
		out = append(out, request{"flow", fmt.Sprintf("/api/flow?t1=%d&t2=%d&granularity=4hourly", t1, t2)})
	}
	out = append(out, request{"view", "/view/map.svg"})
	for k := 0; k < seriesPerSes; k++ {
		g := "daily"
		if rng.Intn(2) == 1 {
			g = "hourly"
		}
		out = append(out, request{"view", fmt.Sprintf("/api/series?id=%d&granularity=%s", pickMeters(w, rng, 1)[0], g)})
	}
	return out
}

// workloadHash fingerprints a workload's generated inputs: the same seed
// must give the same hash, a different seed a different one.
func workloadHash(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sqlOf(stmts []stmt) []string {
	out := make([]string, len(stmts))
	for i := range stmts {
		out[i] = stmts[i].SQL
	}
	return out
}

// streamHash hashes the inputs a workload would generate under seed: the
// first n statements of its stream (or the requests of its first n
// sessions), enough to tell two seeds apart.
func streamHash(w *world, workload string, seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "dash":
		return workloadHash(sqlOf(dashSet(w, rng, false)))
	case "scan":
		var lines []string
		for _, s := range scanStreams(w, seed) {
			for i := 0; i < n; i++ {
				lines = append(lines, s.next().SQL)
			}
		}
		return workloadHash(lines)
	case "mixed":
		lines := sqlOf(dashSet(w, rng, true))
		s := newScanStream(w, rng, 0, 1)
		for i := 0; i < n; i++ {
			lines = append(lines, s.narrow().SQL)
		}
		return workloadHash(lines)
	default:
		var lines []string
		for i := -1; i < n; i++ { // session -1 is the warm-up
			for _, r := range exploreSession(w, rng, seed, i) {
				lines = append(lines, r.Path)
			}
		}
		return workloadHash(lines)
	}
}
