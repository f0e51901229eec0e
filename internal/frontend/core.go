// Package frontend is the protocol-agnostic front door of a statement:
// sessions (tenant, deadline), the statement entry point every transport
// calls — the JSON REST codec, the MySQL wire-protocol server — and the one
// error→status table both encode. Transports own only bytes-on-the-wire
// concerns. Parse, plan, governance admission and execution are not here:
// they are core.Analyzer's one request lifecycle, which the HTTP analysis
// views pass through too.
package frontend

import (
	"context"
	"errors"
	"log"
	"strings"
	"time"

	"vap/internal/core"
	"vap/internal/exec"
	"vap/internal/govern"
)

// Core owns the statement lifecycle over one analyzer. It is stateless
// across statements (sessions carry the per-client state), so one Core is
// shared by every transport and every connection.
type Core struct {
	an *core.Analyzer
}

// NewCore returns a query core over an analyzer.
func NewCore(an *core.Analyzer) *Core { return &Core{an: an} }

// Gov exposes the admission controller (the wire server's per-connection
// admission hook calls it before the first statement).
func (c *Core) Gov() *govern.Controller { return c.an.Gov() }

// Execute runs one statement for sess: it stamps the tenant for
// admission, applies the session's statement deadline (tightening, never
// widening, whatever bound ctx already carries), counts the statement,
// and delegates parse → plan → admission → execution to the analyzer.
// The result's rows hold already-typed cells (int64 | float64 | string |
// nil), not pre-marshaled JSON: the HTTP codec JSON-encodes them and the
// wire server renders the text protocol from the same cells, which is why
// the two transports return byte-identical values for the same statement.
// Every returned error classifies through MapError.
func (c *Core) Execute(ctx context.Context, sess *Session, src string) (*core.VQLOutput, error) {
	sess.NextStmt()
	if strings.TrimSpace(src) == "" {
		return nil, &Error{Kind: KindBadRequest, Msg: "frontend: empty statement", MyErrno: MyErrEmptyQuery}
	}
	ctx = govern.WithTenant(ctx, sess.Tenant())
	if d := sess.Deadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	out, err := c.an.VQL(ctx, src)
	if err != nil {
		LogWorkerPanic(err)
	}
	return out, err
}

// LogWorkerPanic logs the stack of a panic recovered on a worker
// goroutine. MapError hands the client the panic value only, as an
// internal error; every transport's statement errors come out of Execute,
// so logging here puts each stack in the log once; the HTTP view handlers
// that call the analyzer directly call it where they classify their errors.
func LogWorkerPanic(err error) {
	var pe *exec.PanicError
	if errors.As(err, &pe) {
		log.Printf("frontend: %v\n%s", pe, pe.Stack)
	}
}

// ExecuteTimeout is Execute bounded by an overall transport timeout —
// the shared shape of "a handler/command gets at most d, sessions may
// tighten it".
func (c *Core) ExecuteTimeout(ctx context.Context, sess *Session, src string, d time.Duration) (*core.VQLOutput, error) {
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	return c.Execute(ctx, sess, src)
}
