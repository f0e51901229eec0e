// Command vapd runs the VAP web application: it loads (or generates) a
// smart-meter dataset, starts the three-layer server, and optionally
// replays data in near real time for the S2 streaming demo.
//
// Usage:
//
//	vapd [-addr :8080] [-dir data/] [-seed 42] [-days 365] [-stream] [-interval 10s] [-shards 16]
//	     [-segment-bytes N] [-commit-interval 2ms] [-snapshot-interval 5m]
//	     [-retain-raw 2160h] [-rollup-res 3600,86400] [-recover-workers N]
//	     [-max-concurrent N] [-mem-budget 512MiB] [-tenant-quotas 'dash=16,64MiB,2e6']
//	     [-query-deadline 30s] [-max-queue 256] [-max-queue-wait 5s] [-interactive-cutoff 2000000]
//	     [-handler-timeout 120s] [-max-ingest-bytes 1GiB]
//	     [-read-header-timeout 10s] [-read-timeout 15m] [-write-timeout 0] [-idle-timeout 2m]
//	     [-mysql-addr :3306] [-mysql-users users.txt] [-max-conns N] [-shutdown-timeout 5s]
//
// With -mysql-addr, a MySQL wire-protocol listener serves the same VQL
// statements to stock MySQL clients: mysql_native_password auth against
// the -mysql-users file (username:password:tenant per line; without the
// flag a single password-less "vap" user on the default tenant),
// governance rejections as ERR packets from the same error taxonomy the
// HTTP API uses, and -max-conns bounding open wire connections.
//
// With -dir, the store is durable (segmented WAL + snapshots); if the
// directory is empty a synthetic dataset is generated and snapshotted into
// it. Appends are group-committed in the background; POST
// /api/ingest?sync=1 answers once its samples are fsynced.
// -snapshot-interval runs background snapshots that retire covered
// WAL segments without blocking ingest (POST /api/admin/snapshot triggers
// one on demand). -retain-raw bounds how much raw history snapshots keep:
// sealed chunks wholly older than the horizon age out of disk and memory
// while the rollup tiers (-rollup-res) continue to serve coarse
// aggregates over the full history. With -stream, the last 7 days of data
// are withheld from the initial load and replayed live at -interval per
// hour of data.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"vap/internal/api"
	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/govern"
	"vap/internal/store"
	"vap/internal/stream"
	"vap/internal/wire"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "durability directory (empty = in-memory)")
	seed := flag.Int64("seed", 42, "synthetic data seed")
	days := flag.Int("days", 365, "days of synthetic data")
	doStream := flag.Bool("stream", false, "replay the last week live (S2 step 3)")
	interval := flag.Duration("interval", 10*time.Second, "streaming tick interval")
	workers := flag.Int("workers", 0, "parallel kernel fan-out (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 0, "versioned result-cache entries (0 = default 64)")
	shards := flag.Int("shards", 0, "store lock shards, rounded up to a power of two (0 = default 16)")
	segmentBytes := flag.Int64("segment-bytes", 0, "WAL segment rotation threshold (0 = default 64 MiB)")
	commitInterval := flag.Duration("commit-interval", 0, "WAL group-commit cadence (0 = default 2ms)")
	snapInterval := flag.Duration("snapshot-interval", 0, "background snapshot cadence; snapshots retire covered WAL segments without blocking ingest (0 = only on demand via POST /api/admin/snapshot)")
	retainRaw := flag.Duration("retain-raw", 0, "raw-sample retention horizon behind the newest sample; snapshots age older sealed chunks out of disk and memory while rollup tiers keep serving coarse aggregates (0 = keep raw data forever)")
	rollupRes := flag.String("rollup-res", "", "comma-separated rollup tier resolutions in seconds (empty = default 3600,86400; 'off' disables rollups)")
	recoverWorkers := flag.Int("recover-workers", 0, "recovery fan-out: workers installing snapshot sections and applying WAL records on open (0 = GOMAXPROCS, 1 = serial)")
	// Resource governance (admission control, budgets, shedding).
	maxConcurrent := flag.Int("max-concurrent", 0, "global concurrently-admitted request bound (0 = 4 x GOMAXPROCS)")
	memBudget := flag.String("mem-budget", "", "global in-flight memory budget, e.g. 512MiB (empty = default 512MiB)")
	tenantQuotas := flag.String("tenant-quotas", "", "per-tenant quotas: name=maxConcurrent,memBudget,maxCostSamples[;...] — 0 fields inherit the global bound; e.g. 'dash=16,64MiB,2e6;batch=2,256MiB,0'")
	queryDeadline := flag.Duration("query-deadline", 0, "per-query execution deadline enforced in the executor's batch loops (0 = only the handler timeout)")
	maxQueue := flag.Int("max-queue", 0, "admission queue depth before lowest-priority work sheds with 429 (0 = default 256)")
	maxQueueWait := flag.Duration("max-queue-wait", 0, "longest a request may queue before shedding with 429 (0 = default 5s)")
	interactiveCutoff := flag.Int64("interactive-cutoff", 0, "estimated-sample threshold separating interactive from analytics queries (0 = default 2000000)")
	// HTTP front-door hardening.
	handlerTimeout := flag.Duration("handler-timeout", 0, "per-request handler timeout; governance query deadlines supersede it per request (0 = default 120s)")
	maxIngestBytes := flag.String("max-ingest-bytes", "", "largest /api/ingest request body, e.g. 1GiB (empty = default 1GiB)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 0, "http.Server.ReadHeaderTimeout, the slowloris bound (0 = default 10s, negative disables)")
	readTimeout := flag.Duration("read-timeout", 0, "http.Server.ReadTimeout over the whole request incl. body (0 = default 15m, negative disables)")
	writeTimeout := flag.Duration("write-timeout", 0, "http.Server.WriteTimeout (0 = default disabled: /api/stream is long-lived SSE)")
	idleTimeout := flag.Duration("idle-timeout", 0, "http.Server.IdleTimeout for keep-alive connections (0 = default 2m, negative disables)")
	// MySQL wire-protocol frontend.
	mysqlAddr := flag.String("mysql-addr", "", "MySQL wire-protocol listen address, e.g. :3306 (empty = disabled)")
	mysqlUsers := flag.String("mysql-users", "", "wire-protocol user file, username:password:tenant per line (empty = one password-less 'vap' user on the default tenant)")
	maxConns := flag.Int("max-conns", 0, "open wire-protocol connection bound enforced by the governor before the handshake (0 = unlimited)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second, "graceful drain bound for both listeners on SIGINT")
	flag.Parse()

	rollups, err := parseRollupRes(*rollupRes)
	if err != nil {
		log.Fatalf("parse -rollup-res: %v", err)
	}
	st, err := store.Open(store.Options{
		Dir:            *dir,
		Shards:         *shards,
		SegmentBytes:   *segmentBytes,
		CommitInterval: *commitInterval,
		RollupRes:      rollups,
		RetainRaw:      *retainRaw,
		RecoverWorkers: *recoverWorkers,
	})
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer st.Close()
	if *dir != "" {
		logRecovery(st.Recovery())
	}

	var ds *gen.Dataset
	if st.Stats().Samples == 0 {
		log.Printf("generating synthetic dataset (seed=%d days=%d)", *seed, *days)
		ds = gen.Generate(gen.Config{Seed: *seed, Days: *days})
		load := ds
		if *doStream {
			load = ds.Withhold(7) // the last week is replayed live
		}
		if err := load.LoadInto(st); err != nil {
			log.Fatalf("load dataset: %v", err)
		}
		if *dir != "" {
			if err := st.Snapshot(); err != nil {
				log.Printf("snapshot: %v", err)
			}
		}
	} else {
		log.Printf("loaded existing dataset: %+v", st.Stats())
	}

	govCfg := govern.Config{
		MaxConcurrent:     *maxConcurrent,
		MaxQueue:          *maxQueue,
		MaxQueueWait:      *maxQueueWait,
		InteractiveCutoff: *interactiveCutoff,
		QueryDeadline:     *queryDeadline,
		MaxConns:          *maxConns,
	}
	if *memBudget != "" {
		if govCfg.MemBudget, err = govern.ParseBytes(*memBudget); err != nil {
			log.Fatalf("parse -mem-budget: %v", err)
		}
	}
	if govCfg.Tenants, err = govern.ParseTenantQuotas(*tenantQuotas); err != nil {
		log.Fatalf("parse -tenant-quotas: %v", err)
	}
	gov := govern.New(govCfg)

	an := core.NewAnalyzerOpts(st, core.Options{Workers: *workers, CacheEntries: *cacheEntries, Gov: gov})
	log.Printf("exec engine: %d workers over %d store shards, result cache at /api/exec",
		an.Exec().Workers(), st.NumShards())
	eff := gov.Config()
	log.Printf("governance: %d concurrent / %d MiB in flight, queue %d (wait <= %v), interactive cutoff %d est samples, %d tenant quotas",
		eff.MaxConcurrent, eff.MemBudget>>20, eff.MaxQueue, eff.MaxQueueWait, eff.InteractiveCutoff, len(eff.Tenants))
	var hub *stream.Hub
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	if *doStream && ds != nil {
		hub = stream.NewHub()
		box := st.Catalog().Bounds().Buffer(0.002)
		const liveBandwidth = 0.004 // degrees, ~300 m at 55°N
		tracker, err := stream.NewTracker(box, 64, 64, liveBandwidth, len(ds.Customers))
		if err != nil {
			log.Fatalf("tracker: %v", err)
		}
		feeds := make([]stream.Feed, len(ds.Customers))
		for i, c := range ds.Customers {
			feeds[i] = stream.Feed{MeterID: c.Meter.ID, Loc: c.Meter.Location, Samples: ds.Readings[i]}
		}
		_, last, _ := st.TimeBounds()
		from := last + 1
		to := ds.Start.Unix() + int64(ds.Hours)*3600
		rp := &stream.Replayer{St: st, Tracker: tracker, Hub: hub, Interval: *interval, Step: 3600}
		go func() {
			ticks, err := rp.Run(ctx, feeds, from, to)
			if err != nil && ctx.Err() == nil {
				log.Printf("replayer stopped: %v", err)
			}
			log.Printf("replayer finished after %d ticks", ticks)
		}()
		log.Printf("streaming enabled: replaying %d data-hours every %v", (to-from)/3600, *interval)
	}

	apiCfg := api.Config{HandlerTimeout: *handlerTimeout}
	if *maxIngestBytes != "" {
		if apiCfg.MaxIngestBytes, err = govern.ParseBytes(*maxIngestBytes); err != nil {
			log.Fatalf("parse -max-ingest-bytes: %v", err)
		}
	}
	apiSrv := api.NewServerWith(an, hub, apiCfg)
	srv := api.NewHTTPServer(*addr, apiSrv.Routes(), api.ServerTimeouts{
		ReadHeader: *readHeaderTimeout,
		Read:       *readTimeout,
		Write:      *writeTimeout,
		Idle:       *idleTimeout,
	})

	if *dir != "" && *snapInterval > 0 {
		go func() {
			t := time.NewTicker(*snapInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					start := time.Now()
					segs, bytes, err := apiSrv.Snapshot()
					if err != nil {
						log.Printf("background snapshot: %v", err)
						continue
					}
					log.Printf("snapshot done in %v: wal now %d segments / %d bytes",
						time.Since(start).Round(time.Millisecond), segs, bytes)
				}
			}
		}()
		log.Printf("background snapshots every %v (writers are not blocked)", *snapInterval)
	}

	var wireSrv *wire.Server
	if *mysqlAddr != "" {
		users, err := wire.LoadUsers(*mysqlUsers)
		if err != nil {
			log.Fatalf("load -mysql-users: %v", err)
		}
		wireSrv, err = wire.NewServer(wire.Config{
			Addr:         *mysqlAddr,
			Users:        users,
			Core:         apiSrv.Core(),
			QueryTimeout: apiSrv.HandlerTimeout(),
			Logf:         log.Printf,
		})
		if err != nil {
			log.Fatalf("wire server: %v", err)
		}
		// Bound before the HTTP listener starts, so a client that sees
		// /api/health answer can dial the wire port.
		ln, err := net.Listen("tcp", *mysqlAddr)
		if err != nil {
			log.Fatalf("wire listen: %v", err)
		}
		go func() {
			if err := wireSrv.Serve(ln); err != nil && err != wire.ErrServerClosed {
				log.Fatalf("wire serve: %v", err)
			}
		}()
		log.Printf("MySQL wire protocol listening on %s (%d users)", ln.Addr(), len(users))
	}

	// Unified graceful shutdown: on SIGINT close the stream hub first (so
	// long-lived SSE handlers return and the HTTP drain can complete),
	// then drain both listeners — wire clients get a final ERR 1053, HTTP
	// keep-alives finish their in-flight request — all bounded by one
	// shutdown context.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutCtx, c2 := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer c2()
		if hub != nil {
			hub.Close()
		}
		if wireSrv != nil {
			if err := wireSrv.Shutdown(shutCtx); err != nil {
				log.Printf("wire shutdown: %v", err)
			}
		}
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()
	log.Printf("VAP listening on %s (ui at http://localhost%s/)", *addr, *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("serve: %v", err)
	}
	<-drained
	log.Printf("shutdown complete")
}

// logRecovery prints the startup recovery breakdown — snapshot format,
// bytes and load time, WAL segments/records replayed, effective worker
// fan-out, and the resulting samples/s — so a restart-time regression
// shows up in the log instead of having to be inferred.
func logRecovery(rec store.RecoveryStats) {
	if rec.SnapshotFormat == "" && rec.WALRecords == 0 {
		log.Printf("recovery: empty directory (cold start), %d workers", rec.Workers)
		return
	}
	perSec := float64(0)
	if rec.TotalMS > 0 {
		perSec = float64(rec.SnapshotSamples) / (float64(rec.TotalMS) / 1000)
	}
	log.Printf("recovery: snapshot %s %d bytes (%d meters, %d samples, %d chunks) in %dms; wal %d segments / %d records in %dms; total %dms, %d workers, %.0f samples/s",
		rec.SnapshotFormat, rec.SnapshotBytes, rec.SnapshotMeters, rec.SnapshotSamples, rec.SnapshotChunks, rec.SnapshotMS,
		rec.WALSegments, rec.WALRecords, rec.WALReplayMS,
		rec.TotalMS, rec.Workers, perSec)
}

// parseRollupRes maps the -rollup-res flag onto store.Options.RollupRes:
// "" selects the store defaults (nil), "off" disables rollups (non-nil
// empty slice), anything else parses as comma-separated seconds.
func parseRollupRes(s string) ([]int64, error) {
	switch strings.TrimSpace(s) {
	case "":
		return nil, nil
	case "off":
		return []int64{}, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad resolution %q: %w", part, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("resolution %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}
