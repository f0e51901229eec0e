package api

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/geo"
	"vap/internal/store"
	"vap/internal/stream"
)

func TestNewHTTPServerDefaults(t *testing.T) {
	srv := NewHTTPServer(":0", http.NewServeMux())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout != 15*time.Minute {
		t.Errorf("ReadTimeout = %v, want 15m", srv.ReadTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (SSE must stay open)", srv.WriteTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
}

// TestSlowlorisConnectionClosed is the regression test for the seed's
// unbounded http.Server: a client that opens a connection and trickles an
// incomplete request header must be disconnected once ReadHeaderTimeout
// fires, instead of pinning a goroutine and a socket forever.
func TestSlowlorisConnectionClosed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	srv := NewHTTPServer("", mux)
	srv.ReadHeaderTimeout = 150 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()
	t.Cleanup(func() { srv.Close(); <-done })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line but never the terminating blank line: headers stay
	// incomplete, the classic slowloris hold.
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server responded to an incomplete header instead of closing")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server held the stalled connection past 5s; ReadHeaderTimeout is not enforced")
	}
	if held := time.Since(start); held > 3*time.Second {
		t.Fatalf("stalled connection held %v before close, want ~ReadHeaderTimeout", held)
	}

	// The same server still answers a well-formed request.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := io.WriteString(conn2, "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn2).ReadString('\n')
	if err != nil || !strings.Contains(line, "200") {
		t.Fatalf("healthy request after slowloris close: line %q, err %v", line, err)
	}
}

// smallBufListener shrinks every accepted connection's send buffer, so a
// response the client does not read fills the socket after a few KiB.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestSlowlorisStalledExportReader is TestSlowlorisConnectionClosed's
// response-side twin: a client requests a multi-MiB export and never reads
// a byte of it. http.Server's WriteTimeout stays off (SSE), so only the
// per-chunk write deadline of /api/query can free the handler: it must
// return within that deadline of its last accepted chunk, not hold its
// goroutine and the rows until the process exits. The deadline is cut from
// queryWriteTimeout to keep the test short.
func TestSlowlorisStalledExportReader(t *testing.T) {
	t.Parallel()
	st, err := store.Open(store.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	const meters, hours = 100, 720 // 72 000 rows, ≈ 3 MiB of JSON
	for id := int64(1); id <= meters; id++ {
		if err := st.PutMeter(store.Meter{ID: id, Location: geo.Point{Lon: 10.1, Lat: 55.6}, Zone: store.ZoneResidential}); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < hours; h++ {
			if err := st.Append(id, store.Sample{TS: vqlBase + int64(h)*3600, Value: float64(id) + float64(h)/7}); err != nil {
				t.Fatal(err)
			}
		}
	}
	server := NewServer(core.NewAnalyzer(st), nil)
	server.writeTimeout = time.Second
	timeout := server.writeTimeout
	routes := server.Routes()
	returned := make(chan time.Time, 1)
	srv := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		routes.ServeHTTP(w, r)
		returned <- time.Now()
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(smallBufListener{ln}); close(done) }()
	t.Cleanup(func() { srv.Close(); <-done })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	const stmt = "SELECT meter, bucket(hourly), sum(value) FROM meters GROUP BY meter, bucket(hourly)"
	req := fmt.Sprintf("POST /api/query HTTP/1.1\r\nHost: x\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s", len(stmt), stmt)
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case at := <-returned:
		if held := at.Sub(start); held < timeout {
			t.Fatalf("handler returned after %v, before any write could time out: the export fit in the socket buffers", held)
		}
	case <-time.After(4 * timeout):
		t.Fatalf("handler still writing to a stalled reader after %v", 4*timeout)
	}
}

// TestShutdownLeavesNoGoroutines serves Routes with a stream hub through
// NewHTTPServer, holds an /api/stream subscription open and shuts down in
// vapd's order: the hub first, so the SSE handler returns and its
// connection goes idle, then the HTTP drain. Shutdown must finish inside
// its bound, and no handler or connection goroutine may outlive it.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := goroutines()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	hub := stream.NewHub()
	hub.Publish(stream.Event{Kind: stream.KindIngest, Seq: 1, Count: 1}) // a subscriber's first event
	srv := NewHTTPServer("", NewServer(core.NewAnalyzer(st), hub).Routes())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { srv.Serve(ln); close(served) }()
	t.Cleanup(func() { srv.Close(); <-served })

	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	resp, err := (&http.Client{Transport: tr}).Get("http://" + ln.Addr().String() + "/api/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && !strings.HasPrefix(sc.Text(), "data: ") {
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading the subscription: %v", err)
	}

	hub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown with an open subscription: %v", err)
	}
	<-served
	checkNoLeakedGoroutines(t, before, "vap/internal/api.")
	checkNoLeakedGoroutines(t, before, "net/http.(*conn).serve")
}

// goroutines returns the stacks of the running goroutines by id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(g, "goroutine "), " "); ok {
			out[id] = g
		}
	}
	return out
}

// checkNoLeakedGoroutines fails t if a goroutine whose stack holds fn was
// started after before was taken and is still alive. Goroutines are given a
// second to wind down.
func checkNoLeakedGoroutines(t testing.TB, before map[string]string, fn string) {
	t.Helper()
	var leaked []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		leaked = leaked[:0]
		for id, g := range goroutines() {
			if _, old := before[id]; !old && strings.Contains(g, fn) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, g := range leaked {
		t.Errorf("leaked goroutine:\n%s", g)
	}
}
