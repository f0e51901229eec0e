package wire

import (
	"bufio"
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vap/internal/api"
	"vap/internal/core"
	"vap/internal/frontend"
	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/store"
	"vap/internal/vql"
)

// testBase is 2017-06-01 00:00:00 UTC, matching the API test dataset so
// bucket values are directly comparable across suites.
const testBase int64 = 1496275200

// newTestStore builds the deterministic four-meter store the API tests
// use (constant per-meter values over 48 hourly samples) so both
// transports produce exactly predictable rows.
func newTestStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	meters := []store.Meter{
		{ID: 1, Location: geo.Point{Lon: 10.10, Lat: 55.60}, Zone: store.ZoneResidential},
		{ID: 2, Location: geo.Point{Lon: 10.12, Lat: 55.62}, Zone: store.ZoneResidential},
		{ID: 3, Location: geo.Point{Lon: 10.30, Lat: 55.70}, Zone: store.ZoneCommercial},
		{ID: 4, Location: geo.Point{Lon: 10.50, Lat: 55.80}, Zone: store.ZoneIndustrial},
	}
	for _, m := range meters {
		if err := st.PutMeter(m); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 48; h++ {
			if err := st.Append(m.ID, store.Sample{TS: testBase + int64(h)*3600, Value: float64(m.ID)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// testStack is one full two-transport deployment over a shared core: the
// wire listener plus an httptest HTTP server, exactly the cmd/vapd
// wiring.
type testStack struct {
	st   *store.Store
	gov  *govern.Controller
	core *frontend.Core
	wire *Server
	addr string
	http *httptest.Server
}

func newStack(t testing.TB, govCfg govern.Config, users Users) *testStack {
	t.Helper()
	return newStackOn(t, newTestStore(t), govCfg, users)
}

// newExportStore builds a store whose `meter, bucket(hourly)` result is
// meters x hours rows — big enough to wrap the packet sequence id or to
// overflow a socket buffer, which the four-meter store's 192 rows are not.
func newExportStore(t testing.TB, meters, hours int) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for id := int64(1); id <= int64(meters); id++ {
		if err := st.PutMeter(store.Meter{ID: id, Location: geo.Point{Lon: 10.1, Lat: 55.6}, Zone: store.ZoneResidential}); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < hours; h++ {
			if err := st.Append(id, store.Sample{TS: testBase + int64(h)*3600, Value: float64(id) + float64(h)/7}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// exportQuery returns one row per (meter, hour) of the store.
const exportQuery = "SELECT meter, bucket(hourly), sum(value) FROM meters GROUP BY meter, bucket(hourly)"

// newStackOn is newStack over a given store.
func newStackOn(t testing.TB, st *store.Store, govCfg govern.Config, users Users) *testStack {
	t.Helper()
	gov := govern.New(govCfg)
	an := core.NewAnalyzerOpts(st, core.Options{Gov: gov})
	apiSrv := api.NewServerWith(an, nil, api.Config{})
	hs := httptest.NewServer(apiSrv.Routes())
	t.Cleanup(hs.Close)

	ws, err := NewServer(Config{Users: users, Core: apiSrv.Core(), QueryTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = ws.Shutdown(ctx)
	})
	return &testStack{st: st, gov: gov, core: apiSrv.Core(), wire: ws, addr: ln.Addr().String(), http: hs}
}

func (s *testStack) open(t testing.TB, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open(DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// postQuery runs one statement over the HTTP transport.
func postQuery(t testing.TB, url, tenant, query string) (int, map[string]any) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": query})
	req, _ := http.NewRequest(http.MethodPost, url+"/api/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(api.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func wireErrno(t testing.TB, err error) uint16 {
	t.Helper()
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T (%v), want *ClientError", err, err)
	}
	return ce.Errno
}

// TestWireHTTPRowParity is the acceptance check: the same VQL statement
// over a stock database/sql client and over POST /api/query returns
// identical rows, including bucket timestamps and float aggregates.
func TestWireHTTPRowParity(t *testing.T) {
	s := newStack(t, govern.Config{}, nil)
	db := s.open(t, "vap:@"+s.addr+"/vap")

	const q = "SELECT bucket(daily) AS day, mean(value) AS avg_kwh, count(*) AS n FROM meters WHERE zone = 'residential' GROUP BY bucket(daily) ORDER BY day"
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	type parityRow struct {
		day  int64
		mean float64
		n    int64
	}
	var got []parityRow
	for rows.Next() {
		var r parityRow
		if err := rows.Scan(&r.day, &r.mean, &r.n); err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}

	status, out := postQuery(t, s.http.URL, "", q)
	if status != http.StatusOK {
		t.Fatalf("HTTP status = %d: %v", status, out)
	}
	httpCols := out["columns"].([]any)
	if len(httpCols) != len(cols) {
		t.Fatalf("column count: wire %d vs http %d", len(cols), len(httpCols))
	}
	for i, c := range httpCols {
		if cols[i] != c.(string) {
			t.Errorf("column %d: wire %q vs http %q", i, cols[i], c)
		}
	}
	httpRows := out["rows"].([]any)
	if len(httpRows) != len(got) {
		t.Fatalf("row count: wire %d vs http %d", len(got), len(httpRows))
	}
	if len(got) != 2 {
		t.Fatalf("want 2 daily buckets, got %d", len(got))
	}
	for i, hr := range httpRows {
		cells := hr.([]any)
		if int64(cells[0].(float64)) != got[i].day {
			t.Errorf("row %d day: wire %d vs http %v", i, got[i].day, cells[0])
		}
		if cells[1].(float64) != got[i].mean {
			t.Errorf("row %d mean: wire %v vs http %v", i, got[i].mean, cells[1])
		}
		if int64(cells[2].(float64)) != got[i].n {
			t.Errorf("row %d count: wire %d vs http %v", i, got[i].n, cells[2])
		}
	}
	// Residential = meters 1 and 2, 24 samples each per day: mean 1.5.
	if got[0].day != testBase || got[0].mean != 1.5 || got[0].n != 48 {
		t.Errorf("row 0 = %+v", got[0])
	}

	// String (zone) columns survive the text protocol identically too.
	zr, err := db.Query("SELECT zone, sum(value) FROM meters GROUP BY zone ORDER BY zone")
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	var zones []string
	for zr.Next() {
		var zone string
		var sum float64
		if err := zr.Scan(&zone, &sum); err != nil {
			t.Fatal(err)
		}
		zones = append(zones, fmt.Sprintf("%s=%g", zone, sum))
	}
	if err := zr.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"commercial=144", "industrial=192", "residential=144"}
	if strings.Join(zones, ",") != strings.Join(want, ",") {
		t.Errorf("zones = %v, want %v", zones, want)
	}
}

// TestWireAuth covers the credential paths: good login, wrong password,
// unknown user (ERR 1045), and database selection (COM_INIT_DB + ERR
// 1049 for anything but "vap").
func TestWireAuth(t *testing.T) {
	users := Users{
		"alice": {Name: "alice", Password: "secret", Tenant: "dash"},
		"bob":   {Name: "bob"},
	}
	s := newStack(t, govern.Config{}, users)

	if err := s.open(t, "alice:secret@"+s.addr+"/vap").Ping(); err != nil {
		t.Fatalf("valid login: %v", err)
	}
	if err := s.open(t, "bob:@"+s.addr).Ping(); err != nil {
		t.Fatalf("password-less login: %v", err)
	}
	if err := s.open(t, "alice:wrong@"+s.addr).Ping(); err == nil {
		t.Fatal("wrong password accepted")
	} else if wireErrno(t, err) != frontend.MyErrAccess {
		t.Errorf("wrong password errno = %d, want %d", wireErrno(t, err), frontend.MyErrAccess)
	}
	if err := s.open(t, "mallory:x@"+s.addr).Ping(); err == nil {
		t.Fatal("unknown user accepted")
	} else if wireErrno(t, err) != frontend.MyErrAccess {
		t.Errorf("unknown user errno = %d, want %d", wireErrno(t, err), frontend.MyErrAccess)
	}
	if err := s.open(t, "alice:secret@"+s.addr+"/other").Ping(); err == nil {
		t.Fatal("unknown database accepted")
	} else if wireErrno(t, err) != frontend.MyErrUnknownDB {
		t.Errorf("unknown db errno = %d, want %d", wireErrno(t, err), frontend.MyErrUnknownDB)
	}
}

// TestWireHandshakeVariants drives auth with hand-built handshake
// responses: a client that opens with another auth plugin is switched to
// mysql_native_password over the same scramble, a database named in the
// handshake is selected (ERR 1049 for anything but "vap"), and a response
// the server cannot parse is ERR 1835.
func TestWireHandshakeVariants(t *testing.T) {
	s := newStack(t, govern.Config{}, Users{"alice": {Name: "alice", Password: "secret", Tenant: "dash"}})
	// dial answers the server's handshake with what resp builds from its
	// scramble, and returns the server's reply.
	dial := func(resp func(scramble []byte) []byte) (*clientConn, []byte, uint8) {
		t.Helper()
		nc, err := net.Dial("tcp", s.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		cc := &clientConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
		hs, _, err := cc.recv()
		if err != nil {
			t.Fatal(err)
		}
		scramble, err := parseHandshakeV10(hs)
		if err != nil {
			t.Fatal(err)
		}
		if err := cc.send(1, resp(scramble)); err != nil {
			t.Fatal(err)
		}
		reply, seq, err := cc.recv()
		if err != nil {
			t.Fatal(err)
		}
		return cc, reply, seq
	}
	// tail replaces the plugin name that ends a built response.
	tail := func(b []byte, rest string) []byte {
		return append(bytes.TrimSuffix(b, []byte(nativePasswordPlugin+"\x00")), rest...)
	}

	var scramble []byte
	cc, reply, seq := dial(func(sc []byte) []byte {
		scramble = sc
		return tail(buildHandshakeResponse("alice", []byte("sha2 proof")), "caching_sha2_password\x00")
	})
	if !isAuthSwitch(reply) {
		t.Fatalf("reply to another plugin = %x, want an auth switch", reply)
	}
	if err := cc.send(seq+1, nativePasswordToken("secret", scramble)); err != nil {
		t.Fatal(err)
	}
	if reply, _, err := cc.recv(); err != nil || expectOK(reply) != nil {
		t.Fatalf("after the auth switch: reply %x, err %v", reply, err)
	}

	for db, want := range map[string]uint16{"vap": 0, "other": frontend.MyErrUnknownDB} {
		_, reply, _ := dial(func(sc []byte) []byte {
			b := buildHandshakeResponse("alice", nativePasswordToken("secret", sc))
			b[0] |= capConnectWithDB
			return tail(b, db+"\x00"+nativePasswordPlugin+"\x00")
		})
		if err := expectOK(reply); want == 0 && err != nil {
			t.Errorf("database %q in the handshake: %v", db, err)
		} else if want != 0 && (err == nil || wireErrno(t, err) != want) {
			t.Errorf("database %q in the handshake: %v, want errno %d", db, err, want)
		}
	}

	_, reply, _ = dial(func([]byte) []byte { return []byte{1, 2, 3} })
	if err := expectOK(reply); err == nil || wireErrno(t, err) != frontend.MyErrMalformed {
		t.Errorf("malformed handshake response: %v, want errno %d", err, frontend.MyErrMalformed)
	}
}

// TestWireSessionStatements covers the protocol shims: SET vap_* session
// variables, driver-boilerplate SET tolerance, @@sysvar probes, USE, and
// the statement-error taxonomy for bad input.
func TestWireSessionStatements(t *testing.T) {
	s := newStack(t, govern.Config{}, nil)
	db := s.open(t, "vap:@"+s.addr)
	db.SetMaxOpenConns(1) // session variables live per connection

	if _, err := db.Exec("SET NAMES utf8mb4"); err != nil {
		t.Fatalf("SET NAMES: %v", err)
	}
	var comment string
	if err := db.QueryRow("select @@version_comment limit 1").Scan(&comment); err != nil {
		t.Fatalf("select @@version_comment: %v", err)
	}
	if comment == "" {
		t.Error("empty @@version_comment")
	}
	if _, err := db.Exec("USE vap"); err != nil {
		t.Fatalf("USE vap: %v", err)
	}
	if _, err := db.Exec("USE nope"); err == nil {
		t.Fatal("USE nope accepted")
	} else if wireErrno(t, err) != frontend.MyErrUnknownDB {
		t.Errorf("USE nope errno = %d", wireErrno(t, err))
	}

	// A 1ns session deadline times every statement out with the shared
	// timeout taxonomy (ERR 3024 = HTTP 504).
	if _, err := db.Exec("SET vap_deadline = '1ns'"); err != nil {
		t.Fatalf("SET vap_deadline: %v", err)
	}
	_, err := db.Query("SELECT count(*) FROM meters GROUP BY zone")
	if err == nil {
		t.Fatal("query under 1ns deadline succeeded")
	}
	if wireErrno(t, err) != frontend.MyErrTimeout {
		t.Errorf("deadline errno = %d, want %d", wireErrno(t, err), frontend.MyErrTimeout)
	}
	if _, err := db.Exec("SET vap_deadline = '0'"); err != nil {
		t.Fatalf("clear vap_deadline: %v", err)
	}
	after, err := db.Query("SELECT count(*) FROM meters GROUP BY zone")
	if err != nil {
		t.Fatalf("query after clearing deadline: %v", err)
	}
	after.Close()
	if _, err := db.Exec("SET vap_format = 'table'"); err == nil {
		t.Fatal("unknown vap_ session variable accepted")
	}

	// Parse errors carry ER_PARSE_ERROR; empty statements ER_EMPTY_QUERY.
	if _, err := db.Query("SELEC nope"); wireErrno(t, err) != frontend.MyErrParse {
		t.Errorf("parse errno = %d, want %d", wireErrno(t, err), frontend.MyErrParse)
	}
	if _, err := db.Query("   "); wireErrno(t, err) != frontend.MyErrEmptyQuery {
		t.Errorf("empty errno = %d, want %d", wireErrno(t, err), frontend.MyErrEmptyQuery)
	}

	// Unsupported protocol commands get ERR 1047 from the dispatcher.
	raw, err := vapDriver{}.Open("vap:@" + s.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := raw.(*clientConn)
	defer cc.Close()
	if err := cc.send(0, []byte{comStmtPrepare, 'x'}); err != nil {
		t.Fatal(err)
	}
	payload, _, err := cc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if e := expectOK(payload); e == nil || wireErrno(t, e) != frontend.MyErrUnknownCom {
		t.Errorf("COM_STMT_PREPARE reply = %v, want errno %d", e, frontend.MyErrUnknownCom)
	}
}

// TestWireGovernanceTaxonomy proves governance applies identically over
// both transports: a cost-ceiling rejection is ERR 1644 on the wire and
// 422 over HTTP; an overload shed is ERR 1041 with a retry hint and 429
// with Retry-After over HTTP.
func TestWireGovernanceTaxonomy(t *testing.T) {
	users := Users{
		"vap":   {Name: "vap"},
		"batch": {Name: "batch", Tenant: "batch"},
	}
	s := newStack(t, govern.Config{
		MaxConcurrent: 1,
		MaxQueueWait:  100 * time.Millisecond,
		Tenants:       map[string]govern.Quota{"batch": {MaxCostSamples: 10}},
	}, users)

	const q = "SELECT count(*) FROM meters GROUP BY zone"

	// Cost ceiling: tenant "batch" may not scan more than 10 samples.
	db := s.open(t, "batch:@"+s.addr)
	_, err := db.Query(q)
	if err == nil {
		t.Fatal("over-ceiling query admitted")
	}
	if got := wireErrno(t, err); got != frontend.MyErrCost {
		t.Errorf("cost errno = %d, want %d", got, frontend.MyErrCost)
	}
	status, body := postQuery(t, s.http.URL, "batch", q)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("HTTP cost status = %d (%v), want 422", status, body)
	}

	// A window of more than 2^20 buckets is refused before admission: even
	// the capped tenant hears about its window (400 / ER_WRONG_ARGUMENTS),
	// not about its ceiling, in the same words on both transports.
	const wide = "SELECT bucket(hourly), count(*) FROM meters WHERE time >= 1 AND time < 4000000000 GROUP BY bucket(hourly)"
	_, err = db.Query(wide)
	if err == nil {
		t.Fatal("statement of more than 2^20 buckets ran")
	}
	if got := wireErrno(t, err); got != frontend.MyErrWrongArgs || !strings.Contains(err.Error(), "window too wide") {
		t.Errorf("too-wide errno = %d (%v), want %d naming the window", got, err, frontend.MyErrWrongArgs)
	}
	status, body = postQuery(t, s.http.URL, "batch", wide)
	if msg, _ := body["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "window too wide") {
		t.Errorf("HTTP too-wide status = %d (%v), want 400 naming the window", status, body)
	}

	// Overload shed: occupy the single admission slot, then query with a
	// short queue wait. Both transports reject from the same ShedError.
	grant, err := s.gov.Admit(context.Background(), govern.Request{Tenant: "hold", EstSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	db2 := s.open(t, "vap:@"+s.addr)
	_, err = db2.Query(q)
	if err == nil {
		grant.Release()
		t.Fatal("query admitted while slot held")
	}
	var ce *ClientError
	if !errors.As(err, &ce) {
		grant.Release()
		t.Fatalf("shed error is %T: %v", err, err)
	}
	if ce.Errno != frontend.MyErrShed {
		t.Errorf("shed errno = %d, want %d", ce.Errno, frontend.MyErrShed)
	}
	if !strings.Contains(ce.Message, "retry after") {
		t.Errorf("shed message lacks retry hint: %q", ce.Message)
	}
	httpReq, _ := http.NewRequest(http.MethodPost, s.http.URL+"/api/query", strings.NewReader(q))
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		grant.Release()
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("HTTP shed status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("HTTP shed response lacks Retry-After")
	}
	grant.Release()
}

// TestWireConnCloseCancelsQuery closes a connection while its statement
// is stuck in the admission queue and asserts the statement's context is
// cancelled (the queue drains instead of holding the slot).
func TestWireConnCloseCancelsQuery(t *testing.T) {
	s := newStack(t, govern.Config{
		MaxConcurrent: 1,
		MaxQueueWait:  30 * time.Second,
	}, nil)

	grant, err := s.gov.Admit(context.Background(), govern.Request{Tenant: "hold", EstSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer grant.Release()

	raw, err := vapDriver{}.Open("vap:@" + s.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := raw.(*clientConn)
	if err := cc.send(0, append([]byte{comQuery}, "SELECT count(*) FROM meters GROUP BY zone"...)); err != nil {
		t.Fatal(err)
	}
	// Wait until the statement is actually queued behind the held grant.
	waitFor(t, time.Second, func() bool { return s.gov.Snapshot().QueueDepth == 1 })
	cc.nc.Close() // client dies mid-query

	// The server-side watcher must cancel the statement: the queue entry
	// is abandoned without the held slot ever being released.
	waitFor(t, 2*time.Second, func() bool { return s.gov.Snapshot().QueueDepth == 0 })
	if snap := s.gov.Snapshot(); snap.Active != 1 {
		t.Errorf("active = %d, want only the held grant", snap.Active)
	}
}

// TestWireMaxConns verifies pre-handshake connection admission: with
// MaxConns=1 the second connection is refused with ERR 1040 and the
// governor counts the shed.
func TestWireMaxConns(t *testing.T) {
	s := newStack(t, govern.Config{MaxConns: 1}, nil)

	raw, err := vapDriver{}.Open("vap:@" + s.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := raw.(*clientConn)
	waitFor(t, time.Second, func() bool { return s.gov.Snapshot().OpenConns == 1 })

	_, err = vapDriver{}.Open("vap:@" + s.addr)
	if err == nil {
		t.Fatal("second connection admitted over MaxConns=1")
	}
	if got := wireErrno(t, err); got != frontend.MyErrConnCount {
		t.Errorf("refusal errno = %d, want %d", got, frontend.MyErrConnCount)
	}
	snap := s.gov.Snapshot()
	if snap.ConnsShed == 0 {
		t.Errorf("ConnsShed = 0, want > 0")
	}

	cc.Close()
	waitFor(t, time.Second, func() bool { return s.gov.Snapshot().OpenConns == 0 })
	raw3, err := vapDriver{}.Open("vap:@" + s.addr)
	if err != nil {
		t.Fatalf("connection after release refused: %v", err)
	}
	raw3.(*clientConn).Close()
}

// smallSendBufListener gives every accepted connection a 4 KB send buffer,
// so how much of a response the kernel absorbs for a client that is not
// reading does not depend on the host's TCP autotuning limits.
type smallSendBufListener struct{ net.Listener }

func (l smallSendBufListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err == nil {
		err = nc.(*net.TCPConn).SetWriteBuffer(4096)
	}
	return nc, err
}

// TestWireStalledReaderDropped: a client that sends a statement and then
// stops reading must not hold its connection slot for ever. The result set
// is far larger than the socket buffers, so the server's write blocks; the
// write deadline (IdleTimeout without progress) drops the connection, the
// slot frees, and the connection's goroutine ends.
func TestWireStalledReaderDropped(t *testing.T) {
	s := newStackOn(t, newExportStore(t, 40, 500), govern.Config{MaxConns: 1}, nil)
	ws, err := NewServer(Config{Core: s.core, QueryTimeout: 30 * time.Second, IdleTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(smallSendBufListener{ln})
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return ws.Shutdown(ctx)
	}
	t.Cleanup(func() { _ = shutdown() })
	addr := ln.Addr().String()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	cc := &clientConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	if err := cc.handshake("vap", ""); err != nil {
		t.Fatal(err)
	}
	if err := cc.send(0, append([]byte{comQuery}, exportQuery...)); err != nil {
		t.Fatal(err)
	}
	// ... and never read the 20 000 rows.
	waitFor(t, time.Second, func() bool { return s.gov.Snapshot().OpenConns == 1 })
	waitFor(t, 5*time.Second, func() bool { return s.gov.Snapshot().OpenConns == 0 })

	raw, err := vapDriver{}.Open("vap:@" + addr)
	if err != nil {
		t.Fatalf("connection after the stalled one was dropped refused: %v", err)
	}
	raw.(*clientConn).Close()
	// Shutdown waits for every connection goroutine: it returns at once
	// only if the dropped connection's has ended.
	if err := shutdown(); err != nil {
		t.Fatalf("a connection goroutine outlived its connection: %v", err)
	}
}

// TestResultSetSequenceWraps: the packet sequence id is one byte, and a
// result set of more than 250 rows wraps it — 157 times for the 40 320-row
// export. Every packet's id is its predecessor's plus one modulo 256, and a
// database/sql client reads every row of a wrapped set from a real listener.
func TestResultSetSequenceWraps(t *testing.T) {
	const nRows = 600
	rows := make([][]any, nRows)
	for i := range rows {
		rows[i] = []any{int64(i), float64(i) / 3, nil}
	}
	w := &recWriter{}
	last, err := writeResultSet(w, 1, []string{"i", "x", "n"}, []vql.ColType{vql.TypeInt64, vql.TypeFloat64, vql.TypeFloat64}, rows)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&w.buf)
	packets := 0
	for want := uint8(1); ; want++ {
		payload, seq, err := readPacket(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("packet %d has sequence id %d, want %d", packets, seq, want)
		}
		// Packets 5..604 are the rows (after the count, 3 definitions, EOF).
		if i := packets - 5; i >= 0 && i < nRows {
			cells, err := parseTextRow(payload, 3)
			if err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			if cells[0] != strconv.Itoa(i) || cells[1] != strconv.FormatFloat(float64(i)/3, 'g', -1, 64) || cells[2] != nil {
				t.Fatalf("row %d = %v", i, cells)
			}
		}
		packets++
	}
	if want := 1 + 3 + 1 + nRows + 1; packets != want || last != uint8(want) {
		t.Errorf("%d packets, last sequence id %d; want %d packets ending on id %d", packets, last, want, uint8(want))
	}

	s := newStackOn(t, newExportStore(t, 3, nRows/3), govern.Config{}, nil)
	got, err := s.open(t, "vap:@"+s.addr+"/vap").Query(exportQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	n := 0
	for ; got.Next(); n++ {
		var meter, bucket int64
		var sum float64
		if err := got.Scan(&meter, &bucket, &sum); err != nil {
			t.Fatal(err)
		}
		// Bucket-major order: all three meters of an hour, then the next hour.
		h := n / 3
		if wantMeter := int64(n%3 + 1); meter != wantMeter || bucket != testBase+int64(h)*3600 || sum != float64(wantMeter)+float64(h)/7 {
			t.Fatalf("row %d = (%d, %d, %v)", n, meter, bucket, sum)
		}
	}
	if err := got.Err(); err != nil || n != nRows {
		t.Fatalf("read %d rows (err %v), want %d", n, err, nRows)
	}
}

// TestWireShutdown drains the server under load: an idle connection
// receives a final ERR 1053 before its socket closes, and Shutdown
// returns once every connection goroutine exits, leaving none behind.
func TestWireShutdown(t *testing.T) {
	s := newStack(t, govern.Config{}, nil)
	before := goroutines()

	raw, err := vapDriver{}.Open("vap:@" + s.addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := raw.(*clientConn)
	defer cc.Close() // open until the end: a collected socket would close itself
	// Shut down once the connection's goroutine reads its next command,
	// past the draining check: from there only Shutdown can end it.
	waitFor(t, 5*time.Second, func() bool {
		for _, g := range goroutines() {
			if strings.Contains(g, "wire.(*conn).commandLoop") && strings.Contains(g, "wire.readPacket") {
				return true
			}
		}
		return false
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.wire.Shutdown(ctx) }()

	payload, _, err := cc.recv()
	if err != nil {
		t.Fatalf("idle conn got no shutdown notice: %v", err)
	}
	if e := expectOK(payload); e == nil || wireErrno(t, e) != frontend.MyErrShutdown {
		t.Errorf("shutdown notice = %v, want errno %d", e, frontend.MyErrShutdown)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	checkNoLeakedGoroutines(t, before, "vap/internal/wire.(*")
	// The listener is gone too.
	if _, err := net.DialTimeout("tcp", s.addr, 200*time.Millisecond); err == nil {
		t.Errorf("listener still accepting after Shutdown")
	}
}

// TestWireListenAndServe: a server that binds its own listener reports
// the address it got, serves on it, and returns ErrServerClosed once
// Shutdown has drained it.
func TestWireListenAndServe(t *testing.T) {
	s := newStack(t, govern.Config{}, nil)
	ws, err := NewServer(Config{Addr: "127.0.0.1:0", Core: s.core})
	if err != nil {
		t.Fatal(err)
	}
	if addr := ws.Addr(); addr != "" {
		t.Errorf("Addr before serving = %q, want empty", addr)
	}
	done := make(chan error, 1)
	go func() { done <- ws.ListenAndServe() }()
	waitFor(t, 5*time.Second, func() bool { return ws.Addr() != "" })
	if err := s.open(t, "vap:@"+ws.Addr()).Ping(); err != nil {
		t.Fatalf("ping over ListenAndServe: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ws.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != ErrServerClosed {
		t.Errorf("ListenAndServe after Shutdown = %v, want ErrServerClosed", err)
	}
}

// TestWireConcurrentSessionsWithIngest is the -race workhorse: several
// database/sql sessions query concurrently while live ingest appends to
// the store, exercising session state, the shared core, governance
// gauges, and the per-connection writer under the race detector.
func TestWireConcurrentSessionsWithIngest(t *testing.T) {
	s := newStack(t, govern.Config{}, nil)
	db := s.open(t, "vap:@"+s.addr+"/vap")
	db.SetMaxOpenConns(4)

	stop := make(chan struct{})
	var ingestWG sync.WaitGroup
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		ts := testBase + 48*3600
		for {
			select {
			case <-stop:
				return
			default:
			}
			for m := int64(1); m <= 4; m++ {
				if err := s.st.Append(m, store.Sample{TS: ts, Value: float64(m)}); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
			ts += 3600
			// Throttle so the dataset stays small while still racing
			// every query against live version bumps.
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rows, err := db.Query("SELECT zone, count(*), mean(value) FROM meters GROUP BY zone ORDER BY zone")
				if err != nil {
					t.Errorf("worker %d query %d: %v", g, i, err)
					return
				}
				n := 0
				for rows.Next() {
					var zone string
					var count int64
					var mean float64
					if err := rows.Scan(&zone, &count, &mean); err != nil {
						t.Errorf("worker %d scan: %v", g, err)
						break
					}
					n++
				}
				rows.Close()
				if err := rows.Err(); err != nil {
					t.Errorf("worker %d rows: %v", g, err)
				}
				if n != 3 {
					t.Errorf("worker %d query %d: %d zones, want 3", g, i, n)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	ingestWG.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v", d)
}
