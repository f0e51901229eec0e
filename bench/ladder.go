package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vap/internal/api"
	"vap/internal/core"
	"vap/internal/exec"
	"vap/internal/flow"
	"vap/internal/frontend"
	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/viz"
	"vap/internal/vql"
	"vap/internal/wire"
)

// stack is vapd assembled in-process from the packages' public
// constructors, the way cmd/vapd assembles it, over the same dataset. The
// ladders call into it one layer at a time. No file of the program is
// instrumented: every number here is a call timed from outside.
type stack struct {
	w    *world
	out  string
	st   *store.Store
	gov  *govern.Controller
	an   *core.Analyzer
	fc   *frontend.Core
	mux  http.Handler
	wire *wire.Server
	mc   *mysqlConn

	layers map[string]metric  // workload-independent layer metrics
	spans  map[string][]span  // per workload
	attrib map[string]float64 // trace.attributed_share per workload
	r3us   map[string]float64 // in-process top rung of each workload's ladder, µs
}

// loadFrames registers every meter, then appends the first hours of the
// generated readings in 720-sample frames, frame by frame across all
// meters (the shape a backfill has). It returns the samples appended and
// the time the appends took.
func loadFrames(st *store.Store, w *world, hours int) (int, time.Duration, error) {
	for _, c := range w.ds.Customers {
		if err := st.PutMeter(c.Meter); err != nil {
			return 0, 0, err
		}
	}
	n := 0
	start := time.Now()
	for h0 := 0; h0 < hours; h0 += backfillFrame {
		h1 := min(h0+backfillFrame, hours)
		for ci, c := range w.ds.Customers {
			k, err := st.AppendBatch(c.Meter.ID, w.ds.Readings[ci][h0:h1])
			if err != nil {
				return n, 0, err
			}
			n += k
		}
	}
	return n, time.Since(start), nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }
func ms(d time.Duration) float64           { return float64(d) / float64(time.Millisecond) }

func newStack(w *world, out string) (*stack, error) {
	s := &stack{w: w, out: out, layers: map[string]metric{}, spans: map[string][]span{},
		attrib: map[string]float64{}, r3us: map[string]float64{}}
	var err error
	if s.st, err = store.Open(store.Options{}); err != nil {
		return nil, err
	}
	n, d, err := loadFrames(s.st, w, w.ds.Hours)
	if err != nil {
		return nil, err
	}
	s.layers["store.append_rollup_ns_per_sample"] = scalar(nsPer(d, n), "ns", "AppendBatch, in memory, rollup tiers on")
	s.gov = govern.New(govern.Config{})
	s.an = core.NewAnalyzerOpts(s.st, core.Options{Workers: 2, Gov: s.gov})
	srv := api.NewServerWith(s.an, nil, api.Config{})
	s.fc, s.mux = srv.Core(), srv.Routes()
	if s.wire, err = wire.NewServer(wire.Config{Addr: "127.0.0.1:0", Core: s.fc, QueryTimeout: srv.HandlerTimeout()}); err != nil {
		return nil, err
	}
	go func() { _ = s.wire.ListenAndServe() }()
	for i := 0; s.wire.Addr() == ""; i++ {
		if i > 2000 {
			return nil, fmt.Errorf("in-process wire server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}
	if s.mc, err = dialMySQL(s.wire.Addr(), "vap"); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	if s.mc != nil {
		s.mc.Close()
	}
	if s.wire != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = s.wire.Shutdown(ctx)
		cancel()
	}
	if s.st != nil {
		_ = s.st.Close()
	}
}

// serve runs one request through the API handler in-process (no socket)
// and returns the status and the response size.
func serve(mux http.Handler, method, path string, body []byte) (int, int) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Len()
}

// replay sends one statement up the ladder once: R0, the stages
// Analyzer.VQL performs, called one by one from outside; R1 Analyzer.VQL;
// R2 frontend.Core.Execute; R3 the API handler and the wire round trip.
// With hit the statement is already cached and stays so; without, the
// cache is emptied before every rung so that each executes the scan.
// Durations go to out in nanoseconds under "<class>.<stage>".
func (s *stack) replay(tr *tracer, q *stmt, hit bool, sess *frontend.Session, out series) error {
	ctx := context.Background()
	eng := s.an.Engine()
	class := q.Class
	var (
		parsed *vql.Query
		plan   *vql.Plan
		ids    []int64
		from   int64
		to     int64
		cost   vql.ScanCost
		fp     uint64
		res    *vql.Result
		err    error
	)
	if hit {
		// One untimed pass first, so that R0 does not pay for the caches
		// the previous statement's wire round trip left cold and hand R1
		// a warm start.
		if _, err = s.an.VQL(ctx, q.SQL); err != nil {
			return fmt.Errorf("warm %s: %w", q.SQL, err)
		}
	}
	stage := map[string]time.Duration{}
	r0 := tr.run("r0.replay", -1, q.ID, func(root int) map[string]float64 {
		step := func(name string, fn func() map[string]float64) {
			if err != nil {
				return
			}
			stage[name] = tr.run(name, root, q.ID, func(int) map[string]float64 { return fn() })
		}
		step("vql.parse", func() map[string]float64 { parsed, err = vql.Parse(q.SQL); return nil })
		step("vql.compile", func() map[string]float64 { plan, err = vql.Compile(parsed); return nil })
		step("vql.resolve", func() map[string]float64 {
			if ids, err = vql.ResolveScanMeters(eng, plan); err == nil {
				from, to, _ = plan.ResolveWindow(s.st)
			}
			return map[string]float64{"meters": float64(len(ids))}
		})
		step("vql.estimate", func() map[string]float64 {
			cost = vql.EstimateScan(eng, plan, ids, from, to)
			return map[string]float64{"est_samples": float64(cost.EstSamples), "est_blocks": float64(cost.EstBlocks), "tier_res": float64(cost.TierRes)}
		})
		step("govern.admit", func() map[string]float64 {
			var g *govern.Grant
			if g, err = s.gov.Admit(ctx, govern.Request{EstSamples: cost.EstSamples, EstMem: cost.EstMemBytes()}); err == nil {
				g.Release()
			}
			return nil
		})
		step("store.fingerprint", func() map[string]float64 { fp = s.st.Fingerprint(ids); return nil })
		compute := func(ctx context.Context) (any, error) {
			return vql.ExecuteResolved(ctx, eng, plan, ids, from, to, true)
		}
		if hit {
			step("exec.do", func() map[string]float64 {
				var v any
				if v, err = s.an.Exec().Do(ctx, exec.KeyOf(fp, "vql", plan.Fingerprint(), from, to), compute); err == nil {
					res = v.(*vql.Result)
				}
				return map[string]float64{"cache_hit": 1}
			})
		} else {
			step("vql.execute", func() map[string]float64 {
				var v any
				if v, err = compute(ctx); err != nil {
					return nil
				}
				res = v.(*vql.Result)
				return map[string]float64{"samples": float64(res.Samples), "rows": float64(len(res.Rows))}
			})
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay %s: %w", q.SQL, err)
	}
	if class == "narrow" {
		class = "raw"
		if cost.TierRes != 0 {
			class = "tier"
		}
		out.add("narrow.tier_served", float64(cost.TierRes/max(cost.TierRes, 1)))
		out.add("narrow.samples_per_row", float64(res.Samples)/float64(max(len(res.Rows), 1)))
	}
	for name, d := range stage {
		out.add(class+"."+name, float64(d))
	}
	out.add(class+".r0", float64(r0))
	switch class {
	case "raw":
		out.add("raw.exec_per_sample", float64(stage["vql.execute"])/float64(max(res.Samples, 1)))
	case "tier":
		out.add("tier.exec_per_bucket", float64(stage["vql.execute"])/float64(max(cost.TierBuckets, 1)))
	case "wide":
		out.add("wide.exec_per_row", float64(stage["vql.execute"])/float64(max(len(res.Rows), 1)))
		out.add("wide.rows", float64(len(res.Rows)))
	}

	rung := func(name string, fn func() map[string]float64) {
		if err != nil {
			return
		}
		if !hit {
			s.an.Exec().Invalidate()
		}
		d := tr.run(name, -1, q.ID, func(int) map[string]float64 { return fn() })
		out.add(class+"."+name, float64(d))
	}
	rung("r1.core.vql", func() map[string]float64 { _, err = s.an.VQL(ctx, q.SQL); return nil })
	rung("r2.frontend.execute", func() map[string]float64 { _, err = s.fc.Execute(ctx, sess, q.SQL); return nil })
	rung("r3.api.query", func() map[string]float64 {
		code, n := serve(s.mux, http.MethodPost, "/api/query", []byte(q.SQL))
		if code != http.StatusOK {
			err = fmt.Errorf("in-process /api/query: HTTP %d", code)
		}
		return map[string]float64{"bytes_out": float64(n)}
	})
	rung("r3.wire.query", func() map[string]float64 {
		var n int
		_, n, err = s.mc.Query(q.SQL, false)
		return map[string]float64{"rows": float64(n)}
	})
	if err != nil {
		return fmt.Errorf("ladder %s: %w", q.SQL, err)
	}
	return nil
}

// r0Stages are the replayed stages whose sum is compared with R1.
var r0Stages = []string{"vql.parse", "vql.compile", "vql.resolve", "vql.estimate", "govern.admit", "store.fingerprint"}

func attributed(out series, class, execStage string) float64 {
	sum := out.med(class + "." + execStage)
	for _, st := range r0Stages {
		sum += out.med(class + "." + st)
	}
	return sum / out.med(class+".r1.core.vql")
}

// dashLadder sends the cached dashboard set up the ladder.
func (s *stack) dashLadder(tr *tracer, stmts []stmt, reps int) (series, error) {
	out := series{}
	sess := frontend.NewSession("")
	for i := range stmts {
		if _, err := s.an.VQL(context.Background(), stmts[i].SQL); err != nil {
			return nil, err
		}
	}
	for rep := 0; rep < reps; rep++ {
		for i := range stmts {
			start := time.Now()
			if err := s.replay(tr, &stmts[i], true, sess, out); err != nil {
				return nil, err
			}
			out.add("ladder_wall", float64(time.Since(start)))
		}
	}
	return out, nil
}

func (s *stack) probeDash() error {
	tr := newTracer(true)
	stmts := dashSet(s.w, rand.New(rand.NewSource(s.w.seed)), false)
	out, err := s.dashLadder(tr, stmts, 10)
	if err != nil {
		return err
	}
	s.spans["dash"] = tr.spans
	put := func(name, key, unit string, scale float64, note string) {
		m := scalar(out.med(key)/scale, unit, note)
		m.N = len(out[key])
		s.layers[name] = m
	}
	put("vql.parse_ns", "dash.vql.parse", "ns", 1, "vql.Parse, dashboard set")
	put("vql.compile_ns", "dash.vql.compile", "ns", 1, "vql.Compile")
	put("vql.resolve_ns", "dash.vql.resolve", "ns", 1, "ResolveScanMeters + ResolveWindow")
	put("vql.estimate_ns", "dash.vql.estimate", "ns", 1, "EstimateScan")
	put("govern.admit_ns", "dash.govern.admit", "ns", 1, "Admit + Release, uncontended")
	put("exec.do_hit_ns", "dash.exec.do", "ns", 1, "exec.Engine.Do on a cached key")
	put("core.vql_hit_ns", "dash.r1.core.vql", "ns", 1, "R1 Analyzer.VQL, cached")
	put("frontend.execute_hit_ns", "dash.r2.frontend.execute", "ns", 1, "R2 frontend.Core.Execute, cached (self = minus core.vql_hit_ns)")
	put("api.query_hit_us", "dash.r3.api.query", "us", 1e3, "R3 /api/query handler via Routes().ServeHTTP, cached (self = minus frontend)")
	put("wire.query_hit_us", "dash.r3.wire.query", "us", 1e3, "R3 loopback round trip to an in-process wire.Server, cached")
	s.attrib["dash"] = attributed(out, "dash", "exec.do")
	s.r3us["dash"] = out.med("dash.r3.api.query") / 1e3

	ctx := context.Background()
	i := 0
	s.layers["core.vql_hit_allocs"] = scalar(allocsPer(len(stmts)*5, func() {
		_, _ = s.an.VQL(ctx, stmts[i%len(stmts)].SQL)
		i++
	}), "count", "heap allocations of one cached Analyzer.VQL")

	// Tracing overhead: what recording costs per span (200 000 empty
	// spans, recording on minus off) times the spans of one statement's
	// ladder, over that ladder's median wall time. Whole passes with
	// recording on and off were compared first: on this VM they differ by
	// -19 % to +25 % from one try to the next, far more than the overhead.
	const n = 200_000
	cost := func(on bool) time.Duration {
		t := newTracer(on)
		t.spans = make([]span, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			t.run("empty", -1, i, func(int) map[string]float64 { return nil })
		}
		return time.Since(start)
	}
	perSpan := float64(cost(true)-cost(false)) / n
	perLadder := float64(len(tr.spans)) / float64(len(out["ladder_wall"]))
	s.layers["trace.overhead_share"] = scalar(perSpan*perLadder/out.med("ladder_wall"), "share",
		fmt.Sprintf("%.0f ns per recorded span x %.0f spans per statement ladder / ladder wall time", perSpan, perLadder))
	return nil
}

// probeScan sends never-repeating scans up the ladder with the cache
// emptied before every rung.
func (s *stack) probeScan() error {
	tr := newTracer(true)
	out := series{}
	sess := frontend.NewSession("")
	stream := newScanStream(s.w, rand.New(rand.NewSource(s.w.seed)), 0, 1)
	for i := 0; i < 15; i++ {
		q := stream.next()
		if err := s.replay(tr, &q, false, sess, out); err != nil {
			return err
		}
	}
	s.an.Exec().Invalidate()
	s.spans["scan"] = tr.spans
	rows := out.med("wide.rows")
	s.layers["vql.exec_raw_ns_per_sample"] = scalar(out.med("raw.exec_per_sample"), "ns", "ExecuteResolved on raw-decoded narrow scans")
	s.layers["vql.exec_tier_ns_per_bucket"] = scalar(out.med("tier.exec_per_bucket"), "ns", "ExecuteResolved on tier-served narrow scans")
	s.layers["vql.exec_wide_ns_per_row"] = scalar(out.med("wide.exec_per_row"), "ns", "ExecuteResolved on the 40 320-row export")
	s.layers["vql.samples_per_row"] = scalar(out.mean("narrow.samples_per_row"), "count", "samples aggregated per result row, narrow scans")
	s.layers["vql.tier_served_share"] = scalar(out.mean("narrow.tier_served"), "share", "narrow scans the planner serves from a rollup tier")
	s.layers["core.vql_miss_us"] = scalar(out.med("raw.r1.core.vql")/1e3, "us", "R1 Analyzer.VQL on a raw narrow scan, cache empty")
	s.layers["api.encode_ns_per_row"] = scalar((out.med("wide.r3.api.query")-out.med("wide.r2.frontend.execute"))/rows, "ns", "R3 - R2 on the export: JSON encoding")
	s.layers["wire.encode_ns_per_row"] = scalar((out.med("wide.r3.wire.query")-out.med("wide.r2.frontend.execute"))/rows, "ns", "R3 - R2 on the export: text protocol + loopback")
	s.attrib["scan"] = attributed(out, "raw", "vql.execute")
	s.r3us["scan"] = median(append(append([]float64(nil), out["raw.r3.api.query"]...), out["tier.r3.api.query"]...)) / 1e3
	return nil
}

// probeStore times the store's read-side and catalog entry points.
func (s *stack) probeStore() error {
	w, st := s.w, s.st
	all := w.selAll().IDs
	batch := store.GetBatch()
	defer store.PutBatch(batch)
	n := 0
	start := time.Now()
	for _, id := range all {
		it, err := st.Iter(id, w.start, w.end)
		if err != nil {
			return err
		}
		for it.NextBatch(batch) {
			n += batch.Len()
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	s.layers["store.decode_ns_per_sample"] = scalar(nsPer(time.Since(start), n), "ns", "Store.Iter + NextBatch over the whole year, one goroutine")

	n = 0
	sum := 0.0
	start = time.Now()
	for _, id := range all {
		ts, err := st.TierScan(id, hourS, w.start, w.start, w.end, w.end)
		if err != nil {
			return err
		}
		ts.Buckets(func(b *store.RollupBucket) { n++; sum += b.Sum })
	}
	s.layers["store.tierscan_ns_per_bucket"] = scalar(nsPer(time.Since(start), n), "ns", fmt.Sprintf("TierScan + Buckets over the hourly tier (checksum %.3g)", sum))

	loop := func(name, note string, reps int, fn func()) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		s.layers[name] = scalar(nsPer(time.Since(start), reps), "ns", note)
	}
	loop("store.series_stats_ns", "Store.SeriesStats, 460 ids", 2000, func() { st.SeriesStats(all) })
	loop("store.fingerprint_ns", "Store.Fingerprint, 460 ids", 2000, func() { st.Fingerprint(all) })
	b := w.selBox(dashBoxMeters).Box
	box := geo.NewBBox(geo.Point{Lon: b[0], Lat: b[1]}, geo.Point{Lon: b[2], Lat: b[3]})
	loop("index.within_ns", "Store.Within, the 64-meter dashboard box", 2000, func() { st.Within(box) })
	eng := s.an.Engine()
	loop("query.resolve_ns", "Engine.ResolveMeters, zone = residential", 2000, func() {
		_, _ = eng.ResolveMeters(query.Selection{Zone: store.ZoneResidential})
	})
	stats := st.Stats()
	bytes := float64(stats.CompressedBytes)
	for _, t := range stats.Rollups {
		bytes += float64(t.Bytes)
	}
	s.layers["store.mem_bytes_per_sample"] = scalar(bytes/float64(stats.Samples), "B", "Gorilla chunks + rollup tiers per stored sample")
	return nil
}

// realFrames builds ingest bodies carrying hours [h0, h0+n) of the
// generated readings, 20 meters per request, in both encodings.
func (w *world) realFrames(h0, n int) (bin, ndjson [][]byte) {
	for c0 := 0; c0 < len(w.ds.Customers); c0 += backfillGroup {
		c1 := min(c0+backfillGroup, len(w.ds.Customers))
		b := append([]byte(nil), ingestMagic...)
		var j bytes.Buffer
		for ci := c0; ci < c1; ci++ {
			id := w.ds.Customers[ci].Meter.ID
			smps := w.ds.Readings[ci][h0 : h0+n]
			vals := make([]float64, n)
			for i, smp := range smps {
				vals[i] = smp.Value
			}
			b = ingestFrame(b, id, smps[0].TS, vals)
			line, _ := json.Marshal(map[string]any{"meter": id, "samples": smps})
			j.Write(line)
			j.WriteByte('\n')
		}
		bin, ndjson = append(bin, b), append(ndjson, j.Bytes())
	}
	return bin, ndjson
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// probeIngest is the ingest and recovery ladder: AppendBatch with rollups
// off, on (measured when the stack was loaded), then into a durable
// store; fsynced ticks replayed stage by stage and through the API
// handler; the two /api/ingest encodings; snapshot, crash-free close and
// reopen with the store's own recovery breakdown.
func (s *stack) probeIngest() error {
	w := s.w
	tr := newTracer(true)
	hours := w.ds.Hours

	raw, err := store.Open(store.Options{RollupRes: []int64{}})
	if err != nil {
		return err
	}
	var n int
	var dOff time.Duration
	tr.run("store.append_batch[mem,rollups=off]", -1, 0, func(int) map[string]float64 {
		n, dOff, err = loadFrames(raw, w, hours)
		return map[string]float64{"samples": float64(n)}
	})
	_ = raw.Close()
	if err != nil {
		return err
	}
	on := s.layers["store.append_rollup_ns_per_sample"].Value
	delete(s.layers, "store.append_rollup_ns_per_sample")
	s.layers["store.append_ns_per_sample"] = scalar(nsPer(dOff, n), "ns", "AppendBatch in 720-sample frames, in memory, rollups off")
	s.layers["store.rollup_fold_ns_per_sample"] = scalar(on-nsPer(dOff, n), "ns", "rollups on minus rollups off")

	dir := filepath.Join(s.out, "data-ladder")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dur, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer func() { _ = dur.Close() }()
	var dDir time.Duration
	tr.run("store.append_batch[dir]", -1, 0, func(int) map[string]float64 {
		if n, dDir, err = loadFrames(dur, w, hours); err == nil {
			err = dur.Sync()
		}
		_, walBytes := dur.WALStats()
		return map[string]float64{"samples": float64(n), "wal_bytes": float64(walBytes)}
	})
	if err != nil {
		return err
	}
	s.layers["store.append_wal_ns_per_sample"] = scalar(nsPer(dDir, n)-on, "ns", "durable store (default 2 ms group commit, no -sync) minus in-memory")
	_, walBytes := dur.WALStats()
	s.layers["store.wal_bytes_per_sample"] = scalar(float64(walBytes)/float64(n), "B", "WAL bytes per appended sample, 720-sample frames")

	// Ticks: even ticks are replayed stage by stage (R0), odd ticks go
	// through the API handler with ?sync=1 (R3).
	mux := api.NewServerWith(core.NewAnalyzerOpts(dur, core.Options{Workers: 2}), nil, api.Config{}).Routes()
	out := series{}
	var body []byte
	const nTicks = 40
	for k := 0; k < nTicks && err == nil; k++ {
		if k%2 == 0 {
			d := tr.run("tick.replay", -1, k, func(root int) map[string]float64 {
				da := tr.run("store.append_batch", root, k, func(int) map[string]float64 {
					for ci, c := range w.ds.Customers {
						smp := store.Sample{TS: w.end + int64(k)*hourS, Value: w.futureValue(ci, k)}
						if _, err = dur.AppendBatch(c.Meter.ID, []store.Sample{smp}); err != nil {
							break
						}
					}
					return map[string]float64{"samples": float64(len(w.ds.Customers))}
				})
				ds := tr.run("store.sync", root, k, func(int) map[string]float64 {
					if err == nil {
						err = dur.Sync()
					}
					return nil
				})
				out.add("append", float64(da))
				out.add("sync", float64(ds))
				return nil
			})
			out.add("replay", float64(d))
			continue
		}
		body = w.tickBody(k, body)
		d := tr.run("r3.api.ingest[tick,sync]", -1, k, func(int) map[string]float64 {
			if code, _ := serve(mux, http.MethodPost, "/api/ingest?sync=1", body); code != http.StatusOK {
				err = fmt.Errorf("in-process tick: HTTP %d", code)
			}
			return map[string]float64{"bytes_in": float64(len(body))}
		})
		out.add("handler", float64(d))
	}
	if err != nil {
		return err
	}
	s.layers["store.sync_ms"] = scalar(out.med("sync")/1e6, "ms", "Store.Sync after one 460-sample tick")
	s.attrib["mixed"] = out.med("replay") / out.med("handler")
	s.r3us["mixed"] = out.med("handler") / 1e3

	// Recovery: snapshot, a WAL suffix on top, close, reopen.
	dSnap := tr.run("store.snapshot", -1, 0, func(int) map[string]float64 {
		err = dur.Snapshot()
		return map[string]float64{"dir_bytes": float64(dirBytes(dir))}
	})
	if err != nil {
		return err
	}
	total := n + nTicks*len(w.ds.Customers)
	s.layers["store.snapshot_s"] = scalar(dSnap.Seconds(), "s", "Store.Snapshot of the full year")
	s.layers["store.disk_bytes_per_sample"] = scalar(float64(dirBytes(dir))/float64(total), "B", "snapshot + live WAL per stored sample (16 B raw)")
	suffix := 0
	for ci, c := range w.ds.Customers {
		smps := make([]store.Sample, backfillFrame)
		for i := range smps {
			smps[i] = store.Sample{TS: w.end + int64(nTicks+i)*hourS, Value: w.futureValue(ci, nTicks+i)}
		}
		k, err := dur.AppendBatch(c.Meter.ID, smps)
		if err != nil {
			return err
		}
		suffix += k
	}
	if err := dur.Close(); err != nil {
		return err
	}
	var re *store.Store
	dOpen := tr.run("store.open", -1, 0, func(int) map[string]float64 {
		if re, err = store.Open(store.Options{Dir: dir}); err != nil {
			return nil
		}
		rec := re.Recovery()
		s.layers["store.open_snapshot_ms"] = scalar(float64(rec.SnapshotMS), "ms", "Recovery().SnapshotMS: v3 snapshot install")
		s.layers["store.open_wal_ms"] = scalar(float64(rec.WALReplayMS), "ms", fmt.Sprintf("Recovery().WALReplayMS: %d records", rec.WALRecords))
		return map[string]float64{"snapshot_bytes": float64(rec.SnapshotBytes), "snapshot_samples": float64(rec.SnapshotSamples),
			"wal_records": float64(rec.WALRecords), "wal_segments": float64(rec.WALSegments)}
	})
	if err != nil {
		return err
	}
	got := re.Stats().Samples
	_ = re.Close()
	if got != total+suffix {
		return fmt.Errorf("recovery ladder: reopened store holds %d samples, want %d", got, total+suffix)
	}
	s.layers["store.open_s"] = scalar(dOpen.Seconds(), "s", "store.Open on the snapshot plus a 720 h x 460 WAL suffix")

	// The two /api/ingest encodings, 30 days into a fresh in-memory store
	// each, through the handler.
	bin, ndjson := w.realFrames(0, backfillFrame)
	for _, enc := range []struct {
		name   string
		bodies [][]byte
	}{{"api.ingest_bin_ns_per_sample", bin}, {"api.ingest_ndjson_ns_per_sample", ndjson}} {
		fresh, err := store.Open(store.Options{})
		if err != nil {
			return err
		}
		for _, c := range w.ds.Customers {
			if err := fresh.PutMeter(c.Meter); err != nil {
				return err
			}
		}
		mux := api.NewServerWith(core.NewAnalyzerOpts(fresh, core.Options{Workers: 2}), nil, api.Config{}).Routes()
		d := tr.run("r3."+enc.name, -1, 0, func(int) map[string]float64 {
			inBytes := 0
			for _, b := range enc.bodies {
				inBytes += len(b)
				if code, _ := serve(mux, http.MethodPost, "/api/ingest", b); code != http.StatusOK {
					err = fmt.Errorf("in-process ingest: HTTP %d", code)
				}
			}
			return map[string]float64{"bytes_in": float64(inBytes), "samples": float64(fresh.Stats().Samples)}
		})
		got := fresh.Stats().Samples
		_ = fresh.Close()
		if err != nil {
			return err
		}
		if want := backfillFrame * len(w.ds.Customers); got != want {
			return fmt.Errorf("%s: store holds %d samples, want %d", enc.name, got, want)
		}
		s.layers[enc.name] = scalar(nsPer(d, got), "ns", "/api/ingest handler, 720-sample frames, 20 meters per request (self = minus store.append + rollup fold)")
	}
	s.spans["mixed"] = tr.spans
	return nil
}

// probeExplore is the analysis ladder: the typical-pattern pipeline and
// the shift pipeline stage by stage, then whole, then through the API.
func (s *stack) probeExplore() error {
	w := s.w
	ctx := context.Background()
	eng := s.an.Engine()
	tr := newTracer(true)
	var err error
	timed := func(name string, parent int, fn func() map[string]float64) time.Duration {
		if err != nil {
			return 0
		}
		d := tr.run(name, parent, 0, func(int) map[string]float64 { return fn() })
		return d
	}
	var rows [][]float64
	var dist [][]float64
	dMatrix := timed("query.meter_matrix", -1, func() map[string]float64 {
		_, _, rows, err = eng.MeterMatrixCtx(ctx, query.Selection{}, query.GranDaily, query.AggMean)
		return map[string]float64{"meters": float64(len(rows))}
	})
	dDist := timed("reduce.distance_matrix", -1, func() map[string]float64 {
		dist, err = reduce.DistanceMatrixCtx(ctx, rows, reduce.MetricPearson, 2)
		return nil
	})
	dTSNE := timed("reduce.tsne", -1, func() map[string]float64 {
		_, err = reduce.TSNE(ctx, dist, reduce.TSNEConfig{Seed: w.seed})
		return nil
	})
	dMDS := timed("reduce.classical_mds", -1, func() map[string]float64 { _, err = reduce.ClassicalMDS(dist); return nil })
	dTypical := timed("core.typical_patterns[cold]", -1, func() map[string]float64 {
		_, err = s.an.TypicalPatterns(ctx, core.TypicalConfig{Seed: w.seed*1000 + 900})
		return nil
	})
	view := "method=tsne&granularity=daily&seed=" + strconv.FormatInt(w.seed*1000+901, 10)
	timed("r3.api.reduce[cold]", -1, func() map[string]float64 {
		code, n := serve(s.mux, http.MethodGet, "/api/reduce?"+view, nil)
		if code != http.StatusOK {
			err = fmt.Errorf("in-process /api/reduce: HTTP %d", code)
		}
		return map[string]float64{"bytes_out": float64(n)}
	})
	if err != nil {
		return err
	}
	s.layers["query.meter_matrix_ms"] = scalar(ms(dMatrix), "ms", "Engine.MeterMatrixCtx, 460 meters x 365 daily means")
	s.layers["reduce.distance_ms"] = scalar(ms(dDist), "ms", "DistanceMatrixCtx, Pearson, 2 workers")
	s.layers["reduce.tsne_ms"] = scalar(ms(dTSNE), "ms", "TSNE, 460 points, default 500 iterations")
	s.layers["reduce.mds_ms"] = scalar(ms(dMDS), "ms", "ClassicalMDS, 460 points")
	s.layers["core.typical_cold_ms"] = scalar(ms(dTypical), "ms", "Analyzer.TypicalPatterns, cold")
	s.attrib["explore"] = float64(dMatrix+dDist+dTSNE) / float64(dTypical)

	// Shift pipeline between two 4-hour buckets of the same day.
	g := query.Gran4Hourly
	t1 := w.start + 100*dayS + 8*hourS
	t2 := t1 + 8*hourS
	var p1, p2 []query.DemandPoint
	dDemand := timed("query.demand_snapshot", -1, func() map[string]float64 {
		p1, err = eng.DemandSnapshotCtx(ctx, query.Selection{}, g.Truncate(t1), g.Next(t1))
		return map[string]float64{"meters": float64(len(p1))}
	})
	if err == nil {
		p2, err = eng.DemandSnapshotCtx(ctx, query.Selection{}, g.Truncate(t2), g.Next(t2))
	}
	toPts := func(dps []query.DemandPoint) []kde.WeightedPoint {
		pts := make([]kde.WeightedPoint, len(dps))
		for i, d := range dps {
			pts[i] = kde.WeightedPoint{Loc: d.Loc, Weight: d.Weight}
		}
		return pts
	}
	box := s.st.Catalog().Bounds().Buffer(0.002)
	kcfg := kde.Config{Cols: 96, Rows: 96, Kernel: kde.KernelGaussian, Workers: 2}
	var f1, f2 *kde.Field
	dKDE := timed("kde.estimate", -1, func() map[string]float64 { f1, err = kde.EstimateCtx(ctx, toPts(p1), box, kcfg); return nil })
	if err == nil {
		f2, err = kde.EstimateCtx(ctx, toPts(p2), box, kcfg)
	}
	dFlow := timed("flow.shift_extract", -1, func() map[string]float64 {
		var sh *kde.Field
		if sh, err = flow.Shift(f1, f2); err != nil {
			return nil
		}
		return map[string]float64{"flows": float64(len(flow.ExtractOD(sh, flow.ODConfig{})))}
	})
	dShift := timed("core.shift_patterns[cold]", -1, func() map[string]float64 {
		_, err = s.an.ShiftPatternsCtx(ctx, core.ShiftConfig{T1: t1, T2: t2, Granularity: g, GridCols: 96, GridRows: 96})
		return nil
	})
	dMap := timed("viz.map_render", -1, func() map[string]float64 {
		mv := &viz.MapView{Box: box, W: 720, H: 560, Meters: s.st.Catalog().All(), Title: "bench"}
		return map[string]float64{"bytes_out": float64(len(mv.Render()))}
	})
	if err != nil {
		return err
	}
	s.layers["query.demand_snapshot_ms"] = scalar(ms(dDemand), "ms", "Engine.DemandSnapshotCtx, one 4-hour window, all meters")
	s.layers["kde.estimate_ms"] = scalar(ms(dKDE), "ms", "kde.EstimateCtx, 96x96, 2 workers")
	s.layers["flow.extract_ms"] = scalar(ms(dFlow), "ms", "flow.Shift + ExtractOD")
	s.layers["core.shift_cold_ms"] = scalar(ms(dShift), "ms", "Analyzer.ShiftPatternsCtx, cold")
	s.layers["viz.map_svg_ms"] = scalar(ms(dMap), "ms", "MapView.Render, 460 markers")

	// Per-meter series, and the in-process top rung of the view requests.
	out := series{}
	rng := rand.New(rand.NewSource(w.seed))
	for i := 0; i < 40 && err == nil; i++ {
		id := pickMeters(w, rng, 1)[0]
		d := timed("query.meter_series", -1, func() map[string]float64 {
			_, err = eng.MeterSeries(id, query.Selection{}, query.GranDaily, query.AggMean)
			return nil
		})
		out.add("series", float64(d))
	}
	for _, q := range exploreSession(w, rng, w.seed, 901) {
		if q.Class != "view" {
			continue
		}
		d := timed("r3.api.view", -1, func() map[string]float64 {
			code, n := serve(s.mux, http.MethodGet, q.Path, nil)
			if code != http.StatusOK {
				err = fmt.Errorf("in-process %s: HTTP %d", q.Path, code)
			}
			return map[string]float64{"bytes_out": float64(n)}
		})
		out.add("view", float64(d))
	}
	if err != nil {
		return err
	}
	s.layers["query.meter_series_us"] = scalar(out.med("series")/1e3, "us", "Engine.MeterSeries, daily means of one meter over the year")
	s.r3us["explore"] = out.med("view") / 1e3
	s.spans["explore"] = tr.spans
	return nil
}

// probe runs every ladder once. All of them run whatever workload was
// asked for: the contract wants every per-layer metric from every traced
// run, and the layer probes do not depend on the workload.
func (s *stack) probe() error {
	s.layers["gen.generate_s"] = scalar(s.w.genSeconds, "s", "gen.Generate, 460 meters x 365 days")
	for _, step := range []func() error{s.probeStore, s.probeDash, s.probeScan, s.probeIngest, s.probeExplore} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// trace adds the per-layer metrics to a traced workload result and
// writes the workload's span file.
func (s *stack) trace(name string, r *result) error {
	if len(s.spans) == 0 {
		if err := s.probe(); err != nil {
			return err
		}
	}
	for k, v := range s.layers {
		r.Layers[k] = v
	}
	r.Layers["trace.attributed_share"] = scalar(s.attrib[name], "share", "replayed stages (R0) over the first composite rung (R1) of this workload's ladder")
	// The real-process twin of the ladder's top in-process rung.
	r4 := map[string]metric{"dash": r.Metrics["primary_p50_ms"], "scan": r.Metrics["primary_p50_ms"],
		"mixed": r.Layers["ingest_p50_ms"], "explore": r.Layers["view_p50_ms"]}[name]
	r.Layers["proc.net_self_us"] = scalar(r4.Raw*1e3-s.r3us[name], "us", "R4 real-process p50 (cached statement, narrow scan, tick, view) minus the same request through the in-process handler (R3): sockets, scheduling and the other client")
	return writeJSON(filepath.Join(s.out, "trace-"+name+".json"), map[string]any{
		"workload": name, "seed": s.w.seed,
		"note":  "spans of the in-process ladders; parent -1 is a root, stmt is the statement or tick the span belongs to; self time = duration minus children",
		"spans": s.spans[name],
	})
}
