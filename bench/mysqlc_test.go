package main

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/frontend"
	"vap/internal/gen"
	"vap/internal/store"
	"vap/internal/wire"
)

// startWire serves a 3-day dataset over an in-process wire.Server.
func startWire(t *testing.T) string {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Generate(gen.Config{Seed: 1, Days: 3}).LoadInto(st); err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(wire.Config{Addr: "127.0.0.1:0", Core: frontend.NewCore(core.NewAnalyzerOpts(st, core.Options{Workers: 1}))})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { _ = srv.ListenAndServe(); close(done) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
		_ = st.Close()
	})
	for i := 0; srv.Addr() == ""; i++ {
		if i > 2000 {
			t.Fatal("wire server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}
	return srv.Addr()
}

func TestMySQLClientQuery(t *testing.T) {
	c, err := dialMySQL(startWire(t), "vap")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const q = "SELECT meter, count(*), sum(value), zone FROM meters WHERE meter IN (1, 2, 3) GROUP BY meter, zone"
	rows, n, err := c.Query(q, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(rows) != 3 {
		t.Fatalf("%d rows counted, %d kept, want 3", n, len(rows))
	}
	for i, row := range rows {
		if len(row) != 4 || row[0] == nil || *row[0] != strconv.Itoa(i+1) || *row[1] != "72" {
			t.Errorf("row %d = %v", i, wireCells(rows)[i])
		}
		if c := textCell(row[3]); c.Num || c.S == "" {
			t.Errorf("zone cell = %+v", c)
		}
	}
	// Counting only, on the same connection, and a NULL cell.
	if rows, n, err = c.Query(q, false); err != nil || n != 3 || rows != nil {
		t.Errorf("count-only: rows=%v n=%d err=%v", rows, n, err)
	}
	rows, _, err = c.Query("SELECT mean(value) FROM meters WHERE meter = 1 AND time < 10", true)
	if err != nil || len(rows) != 1 || rows[0][0] != nil {
		t.Errorf("empty aggregate: rows=%v err=%v, want one NULL cell", rows, err)
	}
}

func TestMySQLClientSurfacesERR(t *testing.T) {
	addr := startWire(t)
	c, err := dialMySQL(addr, "vap")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Query("SELECT nonsense FROM meters", false)
	var me *mysqlError
	if !errors.As(err, &me) || me.Errno == 0 || me.Message == "" {
		t.Fatalf("bad statement: err = %v, want a mysqlError with an errno", err)
	}
	// The connection survives an ERR.
	if _, n, err := c.Query("SELECT count(*) FROM meters", false); err != nil || n != 1 {
		t.Errorf("after ERR: n=%d err=%v", n, err)
	}
	if _, err := dialMySQL(addr, "nobody"); !errors.As(err, &me) || me.Errno != 1045 {
		t.Errorf("unknown user: err = %v, want ERR 1045", err)
	}
}
