package wire

import (
	"bufio"
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"net"
	"net/http/httptest"
	"strconv"
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
// the per-query cost a dashboard pays — and wire_overhead_ratio = Wire
// ns/op over HTTP ns/op is recorded in BENCH_wire.json.
// Wire/Export and HTTP/Export run the 40 320-row result, never cached,
// through the same two transports.
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

	// The Export pair is the big-result path of both transports: one row per
	// (hour, meter) over 30 days x 56 meters, 40 320 rows — row build, encode
	// and socket write, with the wire's one-byte sequence id wrapping 157
	// times. The window moves by an hour each round, so no round is a cache
	// hit. Rows are counted on the client.
	first, _, _ := st.TimeBounds()
	ids := make([]string, 56)
	for i := range ids {
		ids[i] = strconv.FormatInt(ds.Customers[i].Meter.ID, 10)
	}
	exportQ := func(i int) string {
		from := first + int64(i%1000)*3600
		return fmt.Sprintf("SELECT bucket(hourly), meter, sum(value) FROM meters WHERE meter IN (%s) AND time >= %d AND time < %d GROUP BY bucket(hourly), meter",
			strings.Join(ids, ", "), from, from+30*86400)
	}
	const exportRows = 30 * 24 * 56

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
	wireRun := func(b *testing.B, q string) int {
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

	srv := httptest.NewServer(api.NewServer(an, nil).Routes())
	defer srv.Close()
	httpRun := func(b *testing.B, q string) int {
		resp, err := srv.Client().Post(srv.URL+"/api/query", "text/plain", strings.NewReader(q))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
		// One row per line, flush left: count them without decoding the body.
		n, sc := 0, bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if bytes.HasPrefix(sc.Bytes(), []byte("[")) {
				n++
			}
		}
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		return n
	}

	for _, tr := range []struct {
		name string
		run  func(*testing.B, string) int
	}{{"Wire", wireRun}, {"HTTP", httpRun}} {
		b.Run(tr.name, func(b *testing.B) {
			// Warm the exec cache before timing.
			if n := tr.run(b, q); n != 14 {
				b.Fatalf("warmup returned %d rows, want 14", n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.run(b, q)
			}
		})
		b.Run(tr.name+"/Export", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := tr.run(b, exportQ(i)); n != exportRows {
					b.Fatalf("export returned %d rows, want %d", n, exportRows)
				}
			}
		})
	}
}
