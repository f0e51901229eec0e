// Command vapd runs the VAP web application: it loads (or generates) a
// smart-meter dataset, starts the three-layer server, and optionally
// replays data in near real time for the S2 streaming demo.
//
// Usage:
//
//	vapd [-addr :8080] [-dir data/] [-seed 42] [-days 365] [-workers N]
//	     [-stream] [-interval 10s] [-mem-budget 512MiB]
//	     [-tenant-quotas 'dash=16,64MiB,2e6'] [-mysql-addr :3306] [-mysql-users users.txt]
//
// With -mysql-addr, a MySQL wire-protocol listener serves the same VQL
// statements to stock MySQL clients: mysql_native_password auth against
// the -mysql-users file (username:password:tenant per line; without the
// flag a single password-less "vap" user on the default tenant) and
// governance rejections as ERR packets from the same error taxonomy the
// HTTP API uses.
//
// With -dir, the store is durable (segmented WAL + snapshots); if the
// directory is empty a synthetic dataset is generated into it and
// committed by one snapshot, the WAL empty behind it (store.OpenSeeded),
// and the log breaks that first start into its stages. Appends are
// group-committed in the background; POST
// /api/ingest?sync=1 answers once its samples are fsynced, and POST
// /api/admin/snapshot snapshots the store without blocking ingest,
// retiring the WAL segments it covers. With -stream, the last 7 days of
// data are withheld from the initial load and replayed live at -interval
// per hour of data. Every other setting is its package's default.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"vap/internal/api"
	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/govern"
	"vap/internal/store"
	"vap/internal/stream"
	"vap/internal/wire"
)

// shutdownTimeout bounds the graceful drain of both listeners on SIGINT.
const shutdownTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "durability directory (empty = in-memory)")
	seed := flag.Int64("seed", 42, "synthetic data seed")
	days := flag.Int("days", 365, "days of synthetic data")
	doStream := flag.Bool("stream", false, "replay the last week live (S2 step 3)")
	interval := flag.Duration("interval", 10*time.Second, "streaming tick interval")
	workers := flag.Int("workers", 0, "parallel kernel fan-out (0 = GOMAXPROCS)")
	memBudget := flag.String("mem-budget", "", "global in-flight memory budget, e.g. 512MiB (empty = default 512MiB)")
	tenantQuotas := flag.String("tenant-quotas", "", "per-tenant quotas: name=maxConcurrent,memBudget,maxCostSamples[;...] — 0 fields inherit the global bound; e.g. 'dash=16,64MiB,2e6;batch=2,256MiB,0'")
	mysqlAddr := flag.String("mysql-addr", "", "MySQL wire-protocol listen address, e.g. :3306 (empty = disabled)")
	mysqlUsers := flag.String("mysql-users", "", "wire-protocol user file, username:password:tenant per line (empty = one password-less 'vap' user on the default tenant)")
	flag.Parse()

	var ds *gen.Dataset
	var genMS, loadMS int64
	st, err := store.OpenSeeded(store.Options{Dir: *dir}, func(st *store.Store) error {
		log.Printf("generating synthetic dataset (seed=%d days=%d)", *seed, *days)
		start := time.Now()
		ds = gen.Generate(gen.Config{Seed: *seed, Days: *days})
		loadStart := time.Now()
		load := ds
		if *doStream {
			load = ds.Withhold(7) // the last week is replayed live
		}
		err := load.LoadInto(st)
		genMS, loadMS = loadStart.Sub(start).Milliseconds(), time.Since(loadStart).Milliseconds()
		return err
	})
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer st.Close()
	if rec := st.Recovery(); ds != nil {
		log.Printf("first start: generate %dms, load %dms, snapshot %dms (%d bytes)", genMS, loadMS, rec.SeedSnapshotMS, rec.SeedSnapshotBytes)
	} else {
		logRecovery(rec)
		log.Printf("loaded existing dataset: %+v", st.Stats())
	}

	var govCfg govern.Config
	if *memBudget != "" {
		if govCfg.MemBudget, err = govern.ParseBytes(*memBudget); err != nil {
			log.Fatalf("parse -mem-budget: %v", err)
		}
	}
	if govCfg.Tenants, err = govern.ParseTenantQuotas(*tenantQuotas); err != nil {
		log.Fatalf("parse -tenant-quotas: %v", err)
	}
	gov := govern.New(govCfg)

	an := core.NewAnalyzerOpts(st, core.Options{Workers: *workers, Gov: gov})
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

	apiSrv := api.NewServer(an, hub)
	srv := api.NewHTTPServer(*addr, apiSrv.Routes())

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
		shutCtx, c2 := context.WithTimeout(context.Background(), shutdownTimeout)
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
	log.Printf("VAP listening on %s (ui at %s)", *addr, uiURL(*addr))
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("serve: %v", err)
	}
	<-drained
	log.Printf("shutdown complete")
}

// uiURL is the URL a browser opens for the listen address addr: its host,
// bracketed when IPv6, or localhost when addr names only a port.
func uiURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr + "/"
	}
	if host == "" {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port) + "/"
}

// logRecovery prints the startup recovery breakdown — snapshot format,
// bytes and load time, WAL segments/records replayed, effective worker
// fan-out, and the resulting samples/s — so a restart-time regression
// shows up in the log instead of having to be inferred.
func logRecovery(rec store.RecoveryStats) {
	perSec := float64(0)
	if rec.TotalMS > 0 {
		perSec = float64(rec.SnapshotSamples) / (float64(rec.TotalMS) / 1000)
	}
	log.Printf("recovery: snapshot %s %d bytes (%d meters, %d samples, %d chunks) in %dms; wal %d segments / %d records in %dms; total %dms, %d workers, %.0f samples/s",
		rec.SnapshotFormat, rec.SnapshotBytes, rec.SnapshotMeters, rec.SnapshotSamples, rec.SnapshotChunks, rec.SnapshotMS,
		rec.WALSegments, rec.WALRecords, rec.WALReplayMS,
		rec.TotalMS, rec.Workers, perSec)
}
