package frontend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"testing"
	"time"

	"vap/internal/core"
	"vap/internal/exec"
	"vap/internal/flow"
	"vap/internal/govern"
	"vap/internal/kde"
	"vap/internal/query"
	"vap/internal/reduce"
	"vap/internal/store"
	"vap/internal/vql"
)

// TestMapErrorParity is the cross-transport parity table: one
// representative error per Kind, with the HTTP status AND the MySQL
// errno/SQLSTATE asserted together. Because both transports render from
// the same MapError output, this single table IS the contract that a
// cost rejection is 422 over HTTP exactly when it is errno 1644 over the
// wire, and so on for every kind.
// Kinds enumerates every statement-error kind MapError can return — the
// parity test iterates it so a new kind cannot be added without extending
// both transports' expectations.
var Kinds = []Kind{KindParse, KindBadRequest, KindCost, KindShed, KindTimeout, KindInternal}

func TestMapErrorParity(t *testing.T) {
	cases := []struct {
		kind     Kind
		err      error
		status   int
		errno    uint16
		sqlState string
	}{
		{
			kind:     KindParse,
			err:      &vql.Error{Msg: "unexpected token", Pos: vql.Pos{Line: 2, Col: 7}},
			status:   http.StatusBadRequest,
			errno:    MyErrParse,
			sqlState: "42000",
		},
		{
			kind:     KindBadRequest,
			err:      &Error{Kind: KindBadRequest, Msg: "frontend: empty statement", MyErrno: MyErrEmptyQuery},
			status:   http.StatusBadRequest,
			errno:    MyErrEmptyQuery,
			sqlState: "42000",
		},
		{
			kind:     KindCost,
			err:      &govern.CostError{Tenant: "batch", Est: 5e6, Ceiling: 2e6},
			status:   http.StatusUnprocessableEntity,
			errno:    MyErrCost,
			sqlState: "45000",
		},
		{
			kind:     KindShed,
			err:      &govern.ShedError{Tenant: "dash", Class: govern.ClassInteractive, Reason: "queue full", RetryAfter: 2 * time.Second},
			status:   http.StatusTooManyRequests,
			errno:    MyErrShed,
			sqlState: "HY000",
		},
		{
			kind:     KindTimeout,
			err:      fmt.Errorf("executing: %w", context.DeadlineExceeded),
			status:   http.StatusGatewayTimeout,
			errno:    MyErrTimeout,
			sqlState: "HY000",
		},
		{
			kind:     KindInternal,
			err:      errors.New("store: chunk checksum mismatch"),
			status:   http.StatusInternalServerError,
			errno:    MyErrInternal,
			sqlState: "HY000",
		},
	}

	// Every kind MapError can produce must appear in the table exactly
	// once — adding a new Kind without extending the parity expectations
	// fails here.
	seen := map[Kind]bool{}
	for _, c := range cases {
		if seen[c.kind] {
			t.Fatalf("kind %q appears twice in the parity table", c.kind)
		}
		seen[c.kind] = true
	}
	for _, k := range Kinds {
		if !seen[k] {
			t.Fatalf("kind %q missing from the parity table", k)
		}
	}
	if len(cases) != len(Kinds) {
		t.Fatalf("parity table has %d cases for %d kinds", len(cases), len(Kinds))
	}

	for _, c := range cases {
		t.Run(string(c.kind), func(t *testing.T) {
			info := MapError(c.err)
			if info.Kind != c.kind {
				t.Fatalf("Kind = %q, want %q", info.Kind, c.kind)
			}
			if info.HTTPStatus != c.status {
				t.Errorf("HTTPStatus = %d, want %d", info.HTTPStatus, c.status)
			}
			if info.MyErrno != c.errno {
				t.Errorf("MyErrno = %d, want %d", info.MyErrno, c.errno)
			}
			if info.SQLState != c.sqlState {
				t.Errorf("SQLState = %q, want %q", info.SQLState, c.sqlState)
			}
			if info.Msg == "" {
				t.Errorf("Msg is empty")
			}
		})
	}
}

func TestMapErrorDetails(t *testing.T) {
	info := MapError(&vql.Error{Msg: "bad", Pos: vql.Pos{Line: 3, Col: 11}})
	if info.Line != 3 || info.Col != 11 {
		t.Errorf("parse position = %d:%d, want 3:11", info.Line, info.Col)
	}

	ce := &govern.CostError{Tenant: "t", Est: 10, Ceiling: 5}
	if got := MapError(ce); got.Cost != ce {
		t.Errorf("Cost not retained on cost rejection")
	}

	se := &govern.ShedError{Tenant: "t", RetryAfter: 1700 * time.Millisecond}
	info = MapError(se)
	if info.Shed != se {
		t.Errorf("Shed not retained on shed rejection")
	}
	if info.RetryAfter != 2*time.Second {
		t.Errorf("RetryAfter = %v, want rounded 2s", info.RetryAfter)
	}
	// Sub-second hints round up to the 1s floor, never to zero.
	info = MapError(&govern.ShedError{RetryAfter: 80 * time.Millisecond})
	if info.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s floor", info.RetryAfter)
	}

	// Wrapped governance errors still classify (errors.As unwraps).
	info = MapError(fmt.Errorf("admission: %w", se))
	if info.Kind != KindShed {
		t.Errorf("wrapped shed classified as %q", info.Kind)
	}

	// The request-fault sentinels of the layers under both doors are bad
	// requests on both transports, wrapped or bare.
	for _, bad := range []error{
		core.ErrSameBucket, query.ErrNoMeters, query.ErrWindowTooWide, query.ErrInput,
		store.ErrUnknownMeter, kde.ErrInput, flow.ErrInput, reduce.ErrInput,
	} {
		for _, err := range []error{bad, fmt.Errorf("scan: %w", bad)} {
			info = MapError(err)
			if info.Kind != KindBadRequest || info.HTTPStatus != http.StatusBadRequest || info.MyErrno != MyErrWrongArgs || info.Msg != err.Error() {
				t.Errorf("%v classified as %+v, want bad_request / 400 / %d", err, info, MyErrWrongArgs)
			}
		}
	}

	// A frontend.Error with an explicit kind and errno keeps both.
	info = MapError(&Error{Kind: KindBadRequest, Msg: "unknown db", MyErrno: MyErrUnknownDB})
	if info.MyErrno != MyErrUnknownDB {
		t.Errorf("explicit errno overridden: got %d", info.MyErrno)
	}
}

func TestSessionVariables(t *testing.T) {
	s := NewSession("dash")
	if s.Tenant() != "dash" {
		t.Fatalf("tenant = %q", s.Tenant())
	}
	if err := s.Set("deadline", "250ms"); err != nil {
		t.Fatalf("set deadline: %v", err)
	}
	if s.Deadline() != 250*time.Millisecond {
		t.Errorf("deadline = %v", s.Deadline())
	}
	if err := s.Set("deadline", "0"); err != nil {
		t.Fatalf("clear deadline: %v", err)
	}
	if s.Deadline() != 0 {
		t.Errorf("deadline not cleared: %v", s.Deadline())
	}
	if err := s.Set("deadline", "-5s"); err == nil {
		t.Errorf("negative deadline accepted")
	}
	for _, name := range []string{"nope", "format"} {
		if err := s.Set(name, "json"); err == nil {
			t.Errorf("unknown variable %q accepted", name)
		}
	}
	if err := s.UseDB("VAP"); err != nil {
		t.Errorf("UseDB(VAP): %v", err)
	}
	if err := s.UseDB("other"); err == nil {
		t.Errorf("UseDB(other) accepted")
	} else if MapError(err).MyErrno != MyErrUnknownDB {
		t.Errorf("UseDB(other) errno = %d", MapError(err).MyErrno)
	}
	s.NextStmt()
	if n := s.NextStmt(); n != 2 {
		t.Errorf("second statement id = %d, want 2", n)
	}
}

// TestWorkerPanicClassifiedAndLogged: a recovered worker panic is an
// internal error to the client — value only, no stack — however often it
// is classified (writeGovErr and writeStmtErr both do), and Execute's
// LogWorkerPanic is what puts its stack in the log.
func TestWorkerPanicClassifiedAndLogged(t *testing.T) {
	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	pe := &exec.PanicError{Value: "slice bounds out of range [35:34]", Stack: []byte("goroutine 7 [running]:\nvap/internal/vql.ExecuteResolved.func1")}
	err := fmt.Errorf("scan: %w", pe)
	for i := 0; i < 2; i++ {
		info := MapError(err)
		if info.Kind != KindInternal || info.HTTPStatus != http.StatusInternalServerError || info.MyErrno != MyErrInternal {
			t.Fatalf("worker panic classified as %+v, want internal/500", info)
		}
		if !strings.Contains(info.Msg, "slice bounds out of range") || strings.Contains(info.Msg, "goroutine") {
			t.Errorf("Msg = %q, want the panic value without the stack", info.Msg)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("MapError wrote to the log: %s", buf.String())
	}
	LogWorkerPanic(err)
	LogWorkerPanic(errors.New("not a panic"))
	if got := buf.String(); strings.Count(got, "vql.ExecuteResolved.func1") != 1 || !strings.Contains(got, "slice bounds out of range") {
		t.Errorf("log = %q, want the panic value and its stack once", got)
	}
}
