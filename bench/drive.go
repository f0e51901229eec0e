package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// driveOpts is how one real-process run is shaped. The untraced run
// (end-to-end metrics) starts vapd several times for a steady setup_s,
// measures for the full length and ends with the crash and restart; the
// traced run needs the real process only as the ladder's top rung.
type driveOpts struct {
	vapdBin string
	outDir  string
	seed    int64
	seconds float64 // measured time, cut into nWindows windows
	starts  int     // cold starts; setup_s is their median
	full    bool    // backfill, SIGKILL, restart, durability check
	// sessions > 0 runs explore for that many sessions, not for seconds.
	sessions int
}

const (
	// nWindows windows of seconds/nWindows each, every one preceded by the
	// basket (calib.go) while the clients are parked: a latency metric is
	// the median of the per-window quantiles at reference speed, so that a
	// burst of interference from the host spoils a window, not the run,
	// and a spell that outlasts the run is divided out.
	nWindows = 10
	warmUp   = time.Second
	// settle is the unrecorded start of every window: the basket has just
	// swept the caches.
	settle = 100 * time.Millisecond
	// restarts is how often a durable vapd is killed and restarted.
	// Every restart installs the same snapshot and replays the same WAL
	// (nothing is written in between), yet the replay alone took 0.6 s
	// to 3.7 s across restarts of one directory while the killed
	// process's memory was being torn down and its pages written back.
	// recover_s is therefore the median restart: one such outlier does
	// not move it.
	restarts = 3
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Raw is the value as the clock gave it, before its phases were
	// brought to reference speed (see calib.go); 0 where nothing was
	// adjusted.
	Raw float64 `json:"raw,omitempty"`
	// N is the sample count behind the value; Min/Max the lowest and
	// highest window (equal to Value for single measurements).
	N   int     `json:"n,omitempty"`
	Min float64 `json:"min_window"`
	Max float64 `json:"max_window"`
	// Windows are the per-window values behind a windowed metric.
	Windows []float64 `json:"windows,omitempty"`
	// Note says what the generic name stands for on this workload.
	Note string `json:"note,omitempty"`
}

func scalar(v float64, unit, note string) metric {
	return metric{Value: v, Unit: unit, N: 1, Min: v, Max: v, Note: note}
}

func fromWindowed(w windowed, unit, note string) metric {
	return metric{Value: w.Value, Raw: w.Raw, Unit: unit, N: w.N, Min: w.Min, Max: w.Max, Windows: w.Per, Note: note}
}

// startTimes are exec-to-healthy times of vapd, in seconds as the clock gave
// them. A start is 1.5 s of work measured once, and the basket right
// before it often runs while the kernel is still tearing down the 700 MB
// process that was just killed (indices of 1.0 and 1.6 around two starts
// that both took 1.4 s): too noisy to be one start's index. The metric is
// the median start over the median speed index of all the run's phases.
type startTimes struct {
	raw  []float64
	note string
}

func (t startTimes) metric(idx float64) metric {
	adj := make([]float64, len(t.raw))
	for i, v := range t.raw {
		adj[i] = v / idx
	}
	return metric{Value: median(adj), Raw: median(t.raw), Unit: "s", N: len(adj),
		Min: slices.Min(adj), Max: slices.Max(adj), Windows: adj, Note: t.note}
}

// result is everything one workload run produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Hash      string            `json:"workload_hash"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"` // the first few, for diagnosis
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`

	speed speed // speed indices of this run's phases
	// setups are the cold starts; recovers the starts that followed a
	// SIGKILL and had to bring the data back: for a durable vapd the
	// restarts on its directory, for an in-memory one (it regenerates)
	// every start but the first.
	setups, recovers startTimes
}

// tallyErr counts attempts and failures of one client goroutine.
type tallyErr struct {
	attempted, failed int
	errs              []string
}

func (t *tallyErr) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (r *result) absorb(ts ...*tallyErr) {
	for _, t := range ts {
		r.Attempted += t.attempted
		r.Failed += t.failed
		for _, e := range t.errs {
			if len(r.Errors) < 10 {
				r.Errors = append(r.Errors, e)
			}
		}
	}
}

// coldStarts starts vapd o.starts times, killing all but the last, and
// returns the survivor. A durable run gets a fresh directory per start (an
// empty directory is what makes vapd generate and snapshot the dataset).
func coldStarts(o driveOpts, r *result, durable bool, note string) (*vapd, string, error) {
	r.setups.note = note + ", median of the cold starts"
	for i := 0; ; i++ {
		dir := ""
		if durable {
			dir = filepath.Join(o.outDir, fmt.Sprintf("data-%s-%d", r.Workload, i))
			if err := os.RemoveAll(dir); err != nil {
				return nil, "", err
			}
		}
		r.speed.sample()
		v, err := startVapd(o.vapdBin, filepath.Join(o.outDir, "vapd-"+r.Workload+".log"), o.seed, dir)
		if err != nil {
			return nil, "", err
		}
		r.setups.raw = append(r.setups.raw, v.setup.Seconds())
		if i > 0 && !durable {
			r.recovers.raw = append(r.recovers.raw, v.setup.Seconds())
		}
		if i+1 >= o.starts {
			return v, dir, nil
		}
		v.kill()
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
}

// execCounters is the slice of /api/exec the benchmark reads.
type execCounters struct {
	Hits   float64 `json:"cache_hits"`
	Misses float64 `json:"cache_misses"`
}

// serverStats is the slice of /api/stats the benchmark reads.
type serverStats struct {
	Samples    float64 `json:"samples"`
	Governance struct {
		ConnsShed float64 `json:"conns_shed"`
		Tenants   map[string]struct {
			Shed float64 `json:"shed"`
		} `json:"tenants"`
	} `json:"governance"`
}

func (s *serverStats) shed() float64 {
	n := s.Governance.ConnsShed
	for _, t := range s.Governance.Tenants {
		n += t.Shed
	}
	return n
}

// procCounters samples the process-side counters a drive reports deltas
// of: result-cache hits and misses, CPU seconds.
type procCounters struct {
	exec execCounters
	cpu  float64
}

func sampleProc(v *vapd, h *httpClient) (procCounters, error) {
	var p procCounters
	err := h.getJSON("/api/exec", &p.exec)
	p.cpu = v.cpuSeconds()
	return p, err
}

// procLayers samples the process again and turns the difference to
// before into the process-level layer metrics.
func procLayers(r *result, v *vapd, h *httpClient, before procCounters, ops int) error {
	after, err := sampleProc(v, h)
	if err != nil {
		return err
	}
	var stats serverStats
	if err := h.getJSON("/api/stats", &stats); err != nil {
		return err
	}
	hits, misses := after.exec.Hits-before.exec.Hits, after.exec.Misses-before.exec.Misses
	share := 0.0
	if hits+misses > 0 {
		share = hits / (hits + misses)
	}
	r.Layers["core.cache_hit_share"] = scalar(share, "share", fmt.Sprintf("%d hits, %d misses while measuring", int(hits), int(misses)))
	if ops > 0 {
		r.Layers["proc.cpu_us_per_op"] = scalar((after.cpu-before.cpu)*1e6/float64(ops), "us", "vapd user+system CPU per completed request")
	}
	r.Layers["govern.shed_count"] = scalar(stats.shed(), "count", "must be 0")
	return nil
}

// checkStmt runs one statement over HTTP (and the wire, when mc is not
// nil), demands bit-equal rows from the two transports and, when oracle
// is set, agreement with the brute-force answer.
func checkStmt(w *world, h *httpClient, mc *mysqlConn, s *stmt, oracle bool) error {
	body, status, err := h.query(s.SQL)
	if err := statusErr("http "+s.SQL, body, status, err); err != nil {
		return err
	}
	got, err := queryCells(body)
	if err != nil {
		return fmt.Errorf("decode %s: %w", s.SQL, err)
	}
	if mc != nil {
		rows, _, err := mc.Query(s.SQL, true)
		if err != nil {
			return fmt.Errorf("wire %s: %w", s.SQL, err)
		}
		if err := sameRows(wireCells(rows), got, 0); err != nil {
			return fmt.Errorf("wire != http for %s: %w", s.SQL, err)
		}
	}
	if oracle {
		if err := sameRows(got, w.evaluate(s), oracleTol); err != nil {
			return fmt.Errorf("oracle mismatch for %s: %w", s.SQL, err)
		}
	}
	return nil
}

// closedLoop issues requests back to back until the window is over,
// timing each and recording those started after the settle time.
func closedLoop(w window, rec *recorder, t *tallyErr, issue func() (string, error)) {
	for {
		t0 := time.Now()
		if !t0.Before(w.until) {
			return
		}
		class, err := issue()
		if !t0.Before(w.from) {
			rec.add(class, w.n, time.Since(t0))
		}
		t.note(err)
	}
}

// eachWindow runs the warm-up and the nWindows measurement windows of a
// timed workload. Before every window it runs the basket, while the
// clients are parked and vapd is idle, and files the window's speed index
// with rec; run must return once w.until has passed and its requests are
// back. It returns the length of a window's recorded part.
func (r *result) eachWindow(o driveOpts, rec *recorder, run func(w window)) time.Duration {
	length := time.Duration(o.seconds / nWindows * float64(time.Second))
	now := time.Now()
	run(window{n: -1, from: now.Add(settle), until: now.Add(warmUp)})
	for n := 0; n < nWindows; n++ {
		rec.setIndex(n, r.speed.sample())
		now = time.Now()
		run(window{n: n, from: now.Add(settle), until: now.Add(settle + length)})
	}
	return length
}

// clientPair runs one HTTP and one wire client side by side for every
// window, each a closed loop on its own connection. It returns their
// pooled latencies, each client's tally and the window length.
func (r *result) clientPair(o driveOpts, issueHTTP, issueWire func() (string, error)) (*recorder, *tallyErr, *tallyErr, time.Duration) {
	recH, recW := newRecorder(), newRecorder()
	var tH, tW tallyErr
	length := r.eachWindow(o, recH, func(w window) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); closedLoop(w, recH, &tH, issueHTTP) }()
		go func() { defer wg.Done(); closedLoop(w, recW, &tW, issueWire) }()
		wg.Wait()
	})
	recH.merge(recW)
	return recH, &tH, &tW, length
}

// httpQuery and wireQuery are one timed statement each: the whole body is
// read (rows are counted, not decoded, on the wire), any failure is an
// error.
func httpQuery(h *httpClient, sql string) error {
	body, status, err := h.query(sql)
	return statusErr("http", body, status, err)
}

func wireQuery(mc *mysqlConn, sql string) error {
	_, n, err := mc.Query(sql, false)
	if err == nil && n == 0 {
		err = fmt.Errorf("wire: no rows for %s", sql)
	}
	return err
}

// finish records the numbers every workload ends with: peak memory, and
// for a full run the SIGKILL-and-restart times. It returns the process the
// caller owns from here on: the restarted one, or v (killed) when there
// was no restart.
func finish(o driveOpts, r *result, v *vapd, dir string) (*vapd, error) {
	r.Metrics["rss_peak_mb"] = scalar(v.rssPeakMB(), "MB", "vapd VmHWM")
	v.kill()
	if !o.full {
		return v, nil
	}
	n := 1
	r.recovers.note = "SIGKILL, same flags, exec to first 200: regenerates from -seed (in-memory vapd); median of the starts that followed a SIGKILL"
	if dir != "" {
		n = restarts
		r.recovers.note = "SIGKILL, same -dir, exec to first 200: snapshot install + WAL replay, median of 3 restarts (process-crash durability; the OS cache survives)"
	}
	for i := 0; ; i++ {
		r.speed.sample()
		v2, err := startVapd(o.vapdBin, filepath.Join(o.outDir, "vapd-"+r.Workload+".log"), o.seed, dir)
		if err != nil {
			return v, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		r.recovers.raw = append(r.recovers.raw, v2.setup.Seconds())
		if i+1 == n {
			return v2, nil
		}
		v2.kill()
	}
}

// atRunSpeed reports what the basket saw during the run, and the start
// times over the run's median index.
func (r *result) atRunSpeed(full bool) {
	idx := r.speed.idx
	r.Layers["loadgen.speed_index"] = metric{Value: median(idx), Unit: "x", N: len(idx), Min: slices.Min(idx), Max: slices.Max(idx),
		Note: fmt.Sprintf("basket time over its nominal %g ms, median of the run's phases: windows and sessions were divided by their own index, start times by this one", calibNominal)}
	r.Metrics["setup_s"] = r.setups.metric(median(idx))
	if full {
		r.Metrics["recover_s"] = r.recovers.metric(median(idx))
	}
}

func newResult(o driveOpts, name string) *result {
	return &result{Workload: name, Seed: o.seed, Seconds: o.seconds,
		Metrics: map[string]metric{}, Layers: map[string]metric{}}
}

// runDash drives the dashboard workload: 48 cached statements, one HTTP
// and one wire client.
func runDash(o driveOpts, w *world) (*result, error) {
	r := newResult(o, "dash")
	rng := rand.New(rand.NewSource(o.seed))
	stmts := dashSet(w, rng, false)
	v, _, err := coldStarts(o, r, false, "exec to first 200 from /api/health")
	if err != nil {
		return nil, err
	}
	defer func() { v.kill() }()
	h := newHTTPClient(v.httpAddr)
	defer h.close()
	mc, err := dialMySQL(v.myAddr, "vap")
	if err != nil {
		return nil, err
	}
	defer mc.Close()

	// Gate, and cache fill: every statement once on both transports, a
	// seeded quarter of them against the oracle.
	var gate tallyErr
	for i := range stmts {
		gate.note(checkStmt(w, h, mc, &stmts[i], i%4 == int(o.seed%4)))
	}

	before, err := sampleProc(v, h)
	if err != nil {
		return nil, err
	}
	i, j := 0, len(stmts)/2 // the wire client runs out of step with the HTTP client
	rec, tH, tW, length := r.clientPair(o,
		func() (string, error) { i++; return "http", httpQuery(h, stmts[i%len(stmts)].SQL) },
		func() (string, error) { j++; return "wire", wireQuery(mc, stmts[j%len(stmts)].SQL) })
	if err := procLayers(r, v, h, before, tH.attempted+tW.attempted); err != nil {
		return nil, err
	}
	r.absorb(&gate, tH, tW)
	r.Metrics["primary_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "http"), "ms", "dash_http_p50_ms: cached statement over HTTP")
	r.Metrics["secondary_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "wire"), "ms", "dash_wire_p50_ms: cached statement over the MySQL wire")
	r.Metrics["ops_per_s"] = fromWindowed(rec.perSecond(length, nWindows, "http", "wire"), "1/s", "stmt_per_s: statements completed by both clients")
	r.Layers["dash_http_p99_ms"] = fromWindowed(rec.quantile(0.99, minP99Samples, "http"), "ms", "")
	r.Layers["wire.dash_p99_ms"] = fromWindowed(rec.quantile(0.99, minP99Samples, "wire"), "ms", "")
	v, err = finish(o, r, v, "")
	return r, err
}

// runScan drives the scan workload: never-repeating statements, 4 narrow
// then 1 wide, one HTTP and one wire client on disjoint windows.
func runScan(o driveOpts, w *world) (*result, error) {
	r := newResult(o, "scan")
	streams := scanStreams(w, o.seed)
	v, _, err := coldStarts(o, r, false, "exec to first 200 from /api/health")
	if err != nil {
		return nil, err
	}
	defer func() { v.kill() }()
	h := newHTTPClient(v.httpAddr)
	defer h.close()
	mc, err := dialMySQL(v.myAddr, "vap")
	if err != nil {
		return nil, err
	}
	defer mc.Close()

	var gate tallyErr
	for i := 0; i < 10; i++ {
		s := streams[2].next()
		gate.note(checkStmt(w, h, mc, &s, true))
	}

	before, err := sampleProc(v, h)
	if err != nil {
		return nil, err
	}
	rec, tH, tW, length := r.clientPair(o,
		func() (string, error) { q := streams[0].next(); return q.Class + "_http", httpQuery(h, q.SQL) },
		func() (string, error) { q := streams[1].next(); return q.Class + "_wire", wireQuery(mc, q.SQL) })
	if err := procLayers(r, v, h, before, tH.attempted+tW.attempted); err != nil {
		return nil, err
	}
	r.absorb(&gate, tH, tW)
	all := []string{"narrow_http", "narrow_wire", "wide_http", "wide_wire"}
	r.Metrics["primary_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "narrow_http", "narrow_wire"), "ms", "scan_p50_ms: narrow scan, both transports pooled")
	r.Metrics["secondary_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "wide_http"), "ms", "export_p50_ms: 40 320-row export over HTTP")
	r.Layers["wire.export_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "wide_wire"), "ms", "40 320-row export over the MySQL wire")
	r.Metrics["ops_per_s"] = fromWindowed(rec.perSecond(length, nWindows, all...), "1/s", "stmt_per_s: statements completed by both clients")
	r.Layers["vql.scan_p99_ms"] = fromWindowed(rec.quantile(0.99, minP99Samples, "narrow_http", "narrow_wire"), "ms", "")
	v, err = finish(o, r, v, "")
	return r, err
}

// runMixed drives ingest beside reads on a durable vapd: an open-loop
// tick stream, a closed-loop dashboard whose every statement misses, then
// (full runs) a backfill, a SIGKILL, a restart and the durability check.
func runMixed(o driveOpts, w *world) (*result, error) {
	r := newResult(o, "mixed")
	rng := rand.New(rand.NewSource(o.seed))
	stmts := dashSet(w, rng, true)
	narrow := newScanStream(w, rng, 0, 1)
	v, dir, err := coldStarts(o, r, true, "exec to first 200: generate, load and snapshot into an empty -dir")
	if err != nil {
		return nil, err
	}
	defer func() {
		v.kill()
		os.RemoveAll(dir)
	}()
	hA, hB := newHTTPClient(v.httpAddr), newHTTPClient(v.httpAddr)
	defer hA.close()
	defer hB.close()

	var gate tallyErr
	for i := range stmts {
		if i%4 == int(o.seed%4) {
			gate.note(checkStmt(w, hB, nil, &stmts[i], true))
		}
	}

	before, err := sampleProc(v, hB)
	if err != nil {
		return nil, err
	}
	recA, recB := newRecorder(), newRecorder()
	var tA, tB tallyErr
	acked := newTally(len(w.ds.Customers))
	ticks := 0         // ticks sent so far: the next hour past the end of data
	var late []float64 // generator lateness per tick, ms
	var body []byte
	i := 0
	length := r.eachWindow(o, recA, func(win window) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // client A: open loop, on a fresh schedule every window
			defer wg.Done()
			loop := openLoop{start: win.from.Add(-settle), period: time.Second / tickHz}
			for k := 0; ; k, ticks = k+1, ticks+1 {
				due := loop.due(k)
				if !due.Before(win.until) {
					return
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				body = w.tickBody(ticks, body)
				resp, status, err := hA.do(http.MethodPost, "/api/ingest?sync=1", "application/octet-stream", body)
				if !due.Before(win.from) {
					recA.add("tick", win.n, time.Since(due))
					if win.n >= 0 {
						late = append(late, float64(sent.Sub(due))/float64(time.Millisecond))
					}
				}
				err = statusErr("tick", resp, status, err)
				tA.note(err)
				if err == nil {
					acked.ack(w, ticks, 1, 0, len(w.ds.Customers))
				}
			}
		}()
		go func() { // client B: closed loop
			defer wg.Done()
			closedLoop(win, recB, &tB, func() (string, error) {
				i++
				if i%10 == 0 {
					return "narrow", httpQuery(hB, narrow.narrow().SQL)
				}
				return "dash", httpQuery(hB, stmts[i%len(stmts)].SQL)
			})
		}()
		wg.Wait()
	})
	if err := procLayers(r, v, hB, before, tA.attempted+tB.attempted); err != nil {
		return nil, err
	}
	recA.merge(recB)
	r.absorb(&gate, &tA, &tB)
	r.Metrics["primary_p50_ms"] = fromWindowed(recA.quantile(0.5, 0, "dash"), "ms", "dash_http_p50_ms: dashboard statement missing the cache beside ingest")
	r.Metrics["secondary_p50_ms"] = fromWindowed(recA.quantile(0.5, 0, "narrow"), "ms", "scan_p50_ms: narrow scan beside ingest")
	r.Layers["ingest_p50_ms"] = fromWindowed(recA.quantile(0.5, 0, "tick"), "ms", "fsynced 460-sample tick at 25/s, from its scheduled send; 2 to 12 ms inside one window, 18-22 % between runs of the same code: cannot hold a 25 % bound")
	r.Layers["ingest_p99_ms"] = fromWindowed(recA.quantile(0.99, 0, "tick"), "ms", "windows hold fewer than 1000 ticks: read as the window maximum region, not a p99")
	r.Layers["dash_http_p99_ms"] = fromWindowed(recA.quantile(0.99, minP99Samples, "dash"), "ms", "")
	r.Layers["loadgen.late_ms_p99"] = scalar(percentile(late, 0.99), "ms", "open-loop send lateness; above 5 ms the run is invalid")
	r.Metrics["ops_per_s"] = fromWindowed(recA.perSecond(length, nWindows, "dash", "narrow"), "1/s", "statements completed by the closed-loop dashboard client beside ingest")

	hour := ticks // next hour past the end of data to send
	if o.full {
		var tF tallyErr
		start := time.Now()
		var body []byte
		frames := backfillDays * 24 / backfillFrame
		n := len(w.ds.Customers)
		for f := 0; f < frames; f++ {
			for c0 := 0; c0 < n; c0 += backfillGroup {
				c1 := min(c0+backfillGroup, n)
				path := "/api/ingest"
				if f == frames-1 && c1 == n {
					path += "?sync=1"
				}
				body = w.backfillBody(hour, backfillFrame, c0, c1, body)
				resp, status, err := hA.do(http.MethodPost, path, "application/octet-stream", body)
				err = statusErr("backfill", resp, status, err)
				tF.note(err)
				if err == nil {
					acked.ack(w, hour, backfillFrame, c0, c1)
				}
			}
			hour += backfillFrame
		}
		el := time.Since(start).Seconds()
		r.absorb(&tF)
		r.Layers["ingest_samples_per_s"] = scalar(float64(frames*backfillFrame*n)/el, "1/s", "closed-loop backfill of 90 days in 720-sample frames, fsync on the last request; under a second of disk-bound work, so it swings 4x between runs")
	}
	if v, err = finish(o, r, v, dir); err != nil || !o.full {
		return r, err
	}
	// Durability: after the crash every acknowledged sample past the
	// original end of data must be there, per meter, by count and by sum.
	var tD tallyErr
	tD.note(checkDurable(w, newHTTPClient(v.httpAddr), acked))
	r.absorb(&tD)
	return r, nil
}

// checkDurable compares vapd's per-meter count(*) and sum(value) past
// the original end of data with the generator's tally of acknowledged
// samples.
func checkDurable(w *world, h *httpClient, acked *tally) error {
	defer h.close()
	sql := fmt.Sprintf("SELECT meter, count(*), sum(value) FROM meters WHERE time >= %d GROUP BY meter", w.end)
	body, status, err := h.query(sql)
	if err := statusErr("durability query", body, status, err); err != nil {
		return err
	}
	got, err := queryCells(body)
	if err != nil {
		return err
	}
	var want [][]cell
	for ci, c := range w.ds.Customers { // customers are in ascending meter order
		if acked.count[ci] > 0 {
			want = append(want, []cell{numCell(float64(c.Meter.ID)), numCell(float64(acked.count[ci])), numCell(acked.sum[ci])})
		}
	}
	if err := sameRows(got, want, oracleTol); err != nil {
		return fmt.Errorf("durability: acknowledged samples missing after restart: %w", err)
	}
	return nil
}

// runExplore drives the analyst script: one client, whole sessions until
// the time is up (or a fixed session count), after one warm-up session.
func runExplore(o driveOpts, w *world) (*result, error) {
	r := newResult(o, "explore")
	rng := rand.New(rand.NewSource(o.seed))
	v, _, err := coldStarts(o, r, false, "exec to first 200 from /api/health")
	if err != nil {
		return nil, err
	}
	defer func() { v.kill() }()
	h := newHTTPClient(v.httpAddr)
	defer h.close()

	var gate tallyErr
	gate.note(checkSeries(w, h, rng))
	gate.note(checkReduce(w, h, o.seed))

	before, err := sampleProc(v, h)
	if err != nil {
		return nil, err
	}
	// A session is this workload's window: the basket runs before each,
	// and the session's requests are reported at its speed index.
	rec := newRecorder()
	var t tallyErr
	var perSecond []float64 // requests per second of each session
	start := time.Now()
	for i := -1; ; i++ { // session -1 is the warm-up
		if i >= 0 {
			if o.sessions > 0 && i >= o.sessions {
				break
			}
			if o.sessions == 0 && i >= 3 && time.Since(start).Seconds() >= o.seconds {
				break
			}
		}
		if i == 0 {
			start = time.Now()
		}
		rec.setIndex(i, r.speed.sample())
		reqs := exploreSession(w, rng, o.seed, i)
		t0 := time.Now()
		for _, q := range reqs {
			t1 := time.Now()
			body, status, err := h.get(q.Path)
			rec.add(q.Class, i, time.Since(t1))
			if i >= 0 {
				t.note(statusErr(q.Path, body, status, err))
			}
		}
		if i >= 0 {
			perSecond = append(perSecond, float64(len(reqs))/time.Since(t0).Seconds())
		}
	}
	if err := procLayers(r, v, h, before, t.attempted); err != nil {
		return nil, err
	}
	r.absorb(&gate, &t)
	r.Metrics["primary_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "reduce"), "ms", "reduce_cold_p50_ms: cold t-SNE over all meters")
	r.Metrics["secondary_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "flow"), "ms", "flow_cold_p50_ms: cold KDE flow map")
	r.Layers["view_p50_ms"] = fromWindowed(rec.quantile(0.5, 0, "view"), "ms", "brushes, scatter, map, series (every request that is not a cold reduce or flow)")
	r.Metrics["ops_per_s"] = fromWindowed(rec.atReference(perSecond, t.attempted, true), "1/s", fmt.Sprintf("requests of the script per second, %d sessions", len(perSecond)))
	v, err = finish(o, r, v, "")
	return r, err
}

// checkSeries compares /api/series daily means of one meter with the
// oracle's.
func checkSeries(w *world, h *httpClient, rng *rand.Rand) error {
	id := pickMeters(w, rng, 1)[0]
	body, status, err := h.get(fmt.Sprintf("/api/series?id=%d&granularity=daily", id))
	if err := statusErr("series", body, status, err); err != nil {
		return err
	}
	var resp struct {
		Buckets []struct {
			Start int64   `json:"start"`
			Value float64 `json:"value"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	s := stmt{Sel: w.selMeters([]int64{id}), From: w.start, To: w.end, Bucket: "daily", Aggs: []string{"mean"}}
	want := w.evaluate(&s)
	got := make([][]cell, len(resp.Buckets))
	for i, b := range resp.Buckets {
		got[i] = []cell{numCell(float64(b.Start)), numCell(b.Value)}
	}
	if err := sameRows(got, want, oracleTol); err != nil {
		return fmt.Errorf("series oracle mismatch for meter %d: %w", id, err)
	}
	return nil
}

// checkReduce checks the shape of a reduced view: one finite point per
// meter inside the unit square.
func checkReduce(w *world, h *httpClient, seed int64) error {
	body, status, err := h.get(fmt.Sprintf("/api/reduce?method=mds&granularity=monthly&seed=%d", seed))
	if err := statusErr("reduce", body, status, err); err != nil {
		return err
	}
	var resp struct {
		MeterIDs []int64      `json:"meter_ids"`
		Points   [][2]float64 `json:"points"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.MeterIDs) != len(w.meters) || len(resp.Points) != len(w.meters) {
		return fmt.Errorf("reduce: %d ids, %d points, want %d", len(resp.MeterIDs), len(resp.Points), len(w.meters))
	}
	for i, p := range resp.Points {
		for _, c := range p {
			if math.IsNaN(c) || c < 0 || c > 1 {
				return fmt.Errorf("reduce: point %d = %v outside the unit square", i, p)
			}
		}
	}
	return nil
}

var workloadNames = []string{"dash", "scan", "mixed", "explore"}

func runWorkload(name string, o driveOpts, w *world) (*result, error) {
	run, ok := map[string]func(driveOpts, *world) (*result, error){
		"dash": runDash, "scan": runScan, "mixed": runMixed, "explore": runExplore}[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
	}
	r, err := run(o, w)
	if r != nil {
		r.Hash = streamHash(w, name, o.seed, 16)
		r.atRunSpeed(o.full)
	}
	return r, err
}
