package wire

import (
	"context"
	"database/sql"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vap/internal/api"
	"vap/internal/core"
	"vap/internal/frontend"
	"vap/internal/gen"
	"vap/internal/store"
)

// BenchmarkWireQuery pairs the two statement transports over the same
// warmed query core: the MySQL wire protocol (database/sql through the
// test client in client_test.go against a real TCP listener) and the HTTP
// JSON codec (POST /api/query). The exec cache stays warm, so each round
// trip measures parse + admission + memo hit + transport encode/decode —
// the per-query cost a dashboard pays — and tools/benchjson derives
// wire_overhead_ratio = Wire ns/op over HTTP ns/op for BENCH_wire.json.
func BenchmarkWireQuery(b *testing.B) {
	ds := gen.Generate(gen.Config{
		Seed: 42,
		Days: 90,
		Counts: map[gen.Pattern]int{
			gen.PatternBimodal:      60,
			gen.PatternEnergySaving: 50,
			gen.PatternIdle:         30,
			gen.PatternConstantHigh: 40,
			gen.PatternSuspicious:   20,
			gen.PatternEarlyBird:    30,
		},
	})
	st, err := store.Open(store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := ds.LoadInto(st); err != nil {
		b.Fatal(err)
	}
	an := core.NewAnalyzer(st)
	const q = `SELECT bucket(daily) AS day, mean(value) AS avg_kwh, count(*)
		FROM meters WHERE zone = 'residential'
		GROUP BY bucket(daily) ORDER BY avg_kwh DESC LIMIT 14`

	b.Run("Wire", func(b *testing.B) {
		ws, err := NewServer(Config{Core: frontend.NewCore(an), QueryTimeout: 30 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go ws.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ws.Shutdown(ctx)
		}()
		db, err := sql.Open(DriverName, "vap@"+ln.Addr().String()+"/vap")
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		db.SetMaxOpenConns(1)
		run := func() int {
			rows, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for rows.Next() {
				var day, avg, cnt string
				if err := rows.Scan(&day, &avg, &cnt); err != nil {
					b.Fatal(err)
				}
				n++
			}
			if err := rows.Close(); err != nil {
				b.Fatal(err)
			}
			return n
		}
		if n := run(); n != 14 {
			b.Fatalf("warmup returned %d rows, want 14", n)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})

	b.Run("HTTP", func(b *testing.B) {
		srv := httptest.NewServer(api.NewServer(an, nil).Routes())
		defer srv.Close()
		client := srv.Client()
		run := func() {
			resp, err := client.Post(srv.URL+"/api/query", "text/plain", strings.NewReader(q))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		run() // warm the exec cache before timing
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}
