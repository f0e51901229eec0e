package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vap/internal/frontend"
	"vap/internal/govern"
	"vap/internal/vql"
)

// ErrServerClosed is returned by Serve after Shutdown, mirroring
// net/http's contract so cmd/vapd can treat both listeners uniformly.
var ErrServerClosed = errors.New("wire: server closed")

// Config configures the wire-protocol server.
type Config struct {
	// Addr is the listen address, e.g. ":3306" or "127.0.0.1:0".
	Addr string
	// Users is the authentication table (DefaultUsers() if nil).
	Users Users
	// Core executes statements; shared with the HTTP transport so both
	// run the identical lifecycle and governance.
	Core *frontend.Core
	// QueryTimeout bounds one statement end to end, exactly like the
	// HTTP codec's handler timeout (0 = no bound). Sessions may tighten
	// it with SET vap_deadline.
	QueryTimeout time.Duration
	// IdleTimeout closes connections idle between commands, and ones
	// whose client accepts no byte of a response for as long
	// (default 5m).
	IdleTimeout time.Duration
	// Logf, when set, receives connection lifecycle log lines.
	Logf func(format string, args ...any)
}

// Server is a MySQL wire-protocol listener over a frontend.Core. One
// goroutine per connection; admission (max connections, per-tenant
// gauges) is delegated to the shared governor before the handshake is
// even sent, so a connection flood is rejected cheaply.
type Server struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	nextID   atomic.Uint32
}

// authTimeout bounds the handshake exchange.
const authTimeout = 10 * time.Second

// NewServer returns a wire server for cfg. cfg.Core is required.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Core == nil {
		return nil, errors.New("wire: Config.Core is required")
	}
	if cfg.Users == nil {
		cfg.Users = DefaultUsers()
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	return &Server{cfg: cfg, conns: make(map[*conn]struct{})}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listen address ("" before Serve), so tests can
// listen on ":0" and discover the port.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until Shutdown closes it, returning
// ErrServerClosed on a clean drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		// Admission before any protocol work: a connection flood is
		// bounced with one ERR packet and no handshake/scramble cost.
		release, err := s.cfg.Core.Gov().ConnOpen()
		if err != nil {
			go s.refuse(nc, err)
			continue
		}
		s.wg.Add(1)
		go s.serveConn(nc, release)
	}
}

// refuse rejects a connection that failed admission: one ERR packet
// (ER_CON_COUNT_ERROR with the governor's retry hint) instead of a
// handshake, then close.
func (s *Server) refuse(nc net.Conn, err error) {
	defer nc.Close()
	info := frontend.MapError(err)
	errno, msg := info.MyErrno, info.Msg
	if info.Shed != nil && info.Shed.Class == govern.ClassConn {
		errno = frontend.MyErrConnCount
	}
	if info.RetryAfter > 0 && !strings.Contains(msg, "retry after") {
		msg = fmt.Sprintf("%s (retry after %ds)", msg, int(info.RetryAfter/time.Second))
	}
	nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
	bw := bufio.NewWriter(nc)
	_ = writePacket(bw, 0, buildErr(errno, info.SQLState, msg))
	_ = bw.Flush()
}

func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) serveConn(nc net.Conn, release func()) {
	defer s.wg.Done()
	defer release()
	defer nc.Close()
	c := &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReader(nc),
		bw:  bufio.NewWriterSize(stallWriter{nc: nc, timeout: s.cfg.IdleTimeout}, writeBufBytes),
		id:  s.nextID.Add(1),
	}
	if !s.track(c) {
		return // raced with Shutdown
	}
	defer s.untrack(c)
	if err := c.run(); err != nil && !errors.Is(err, net.ErrClosed) {
		s.logf("wire: conn %d: %v", c.id, err)
	}
}

// writeBufBytes sizes a connection's write buffer: a 40 000-row result set
// leaves in some twenty socket writes, where bufio's 4 KB default made
// hundreds.
const writeBufBytes = 64 << 10

// stallWriter is the socket end of a connection's write buffer. It arms the
// write deadline where bytes actually leave — once per flushed buffer, not
// per packet — so a client that stops reading a result set is dropped after
// IdleTimeout without progress, the bound the read side already applies
// between commands, instead of holding its connection slot, its goroutine
// and the rows until the process exits.
type stallWriter struct {
	nc      net.Conn
	timeout time.Duration
}

func (w stallWriter) Write(p []byte) (int, error) {
	w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.nc.Write(p)
}

// Shutdown drains the server: stops accepting, sends idle connections a
// final ERR 1053 (server shutdown) and closes them, cancels in-flight
// statements, and waits for every connection goroutine — bounded by ctx,
// after which remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		go c.beginShutdown()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// conn is one client connection: its own goroutine runs the handshake
// then the command loop. Writes go through a mutex because Shutdown may
// send an asynchronous final ERR while the loop owns the connection.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader
	id  uint32

	wmu sync.Mutex
	bw  *bufio.Writer

	sess *frontend.Session

	mu     sync.Mutex
	busy   bool               // a command is being processed
	cancel context.CancelFunc // set while a statement executes
}

func (c *conn) writePacket(seq uint8, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return writePacket(c.bw, seq, payload)
}

func (c *conn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

func (c *conn) writeErrPacket(seq uint8, errno uint16, sqlState, msg string) error {
	if err := c.writePacket(seq, buildErr(errno, sqlState, msg)); err != nil {
		return err
	}
	return c.flush()
}

// writeStmtErr encodes one classified statement error as an ERR packet.
// The errno/SQLSTATE come from the same frontend.MapError table the HTTP
// codec renders statuses from; shed errors append the retry hint the
// HTTP transport carries in Retry-After.
func (c *conn) writeStmtErr(seq uint8, err error) error {
	info := frontend.MapError(err)
	msg := info.Msg
	if info.Kind == frontend.KindShed && !strings.Contains(msg, "retry after") {
		sec := int(info.RetryAfter / time.Second)
		if sec < 1 {
			sec = 1
		}
		msg = fmt.Sprintf("%s (retry after %ds)", msg, sec)
	}
	return c.writeErrPacket(seq, info.MyErrno, info.SQLState, msg)
}

// beginShutdown is the per-connection half of Server.Shutdown: cancel a
// running statement (its conn will notice draining and exit after the
// response), or tell an idle client the server is going away and close.
func (c *conn) beginShutdown() {
	c.mu.Lock()
	busy, cancel := c.busy, c.cancel
	c.mu.Unlock()
	if busy {
		if cancel != nil {
			cancel()
		}
		return
	}
	_ = c.writeErrPacket(0, frontend.MyErrShutdown, "HY000", "Server shutdown in progress")
	c.nc.Close()
}

// run performs the handshake + auth exchange, then the command loop.
func (c *conn) run() error {
	tenant, err := c.auth()
	if err != nil {
		return err
	}
	// Post-auth admission: bind the connection to its tenant's gauge so
	// the governor's snapshot attributes open connections per tenant.
	unbind := c.srv.cfg.Core.Gov().ConnBind(tenant)
	defer unbind()
	return c.commandLoop()
}

// auth runs handshake v10 + mysql_native_password verification and
// returns the authenticated tenant.
func (c *conn) auth() (string, error) {
	scramble, err := newScramble()
	if err != nil {
		return "", err
	}
	c.nc.SetDeadline(time.Now().Add(authTimeout))
	defer c.nc.SetDeadline(time.Time{})
	if err := c.writePacket(0, buildHandshake(c.id, scramble)); err != nil {
		return "", err
	}
	if err := c.flush(); err != nil {
		return "", err
	}
	payload, seq, err := readPacket(c.br)
	if err != nil {
		return "", fmt.Errorf("reading handshake response: %w", err)
	}
	resp, err := parseHandshakeResponse(payload)
	if err != nil {
		_ = c.writeErrPacket(seq+1, frontend.MyErrMalformed, "HY000", err.Error())
		return "", err
	}
	token := resp.authToken
	if resp.plugin != "" && resp.plugin != nativePasswordPlugin {
		// Client opened with another plugin: ask it to redo auth with
		// mysql_native_password over the same scramble.
		if err := c.writePacket(seq+1, buildAuthSwitch(scramble)); err != nil {
			return "", err
		}
		if err := c.flush(); err != nil {
			return "", err
		}
		var sseq uint8
		token, sseq, err = readPacket(c.br)
		if err != nil {
			return "", fmt.Errorf("reading auth switch response: %w", err)
		}
		seq = sseq
	}
	user, ok := c.srv.cfg.Users[resp.user]
	if !ok || !checkNativePassword(user.Password, scramble, token) {
		msg := fmt.Sprintf("Access denied for user '%s'", resp.user)
		_ = c.writeErrPacket(seq+1, frontend.MyErrAccess, "28000", msg)
		return "", fmt.Errorf("wire: %s", msg)
	}
	c.sess = frontend.NewSession(user.Tenant)
	if resp.database != "" {
		if err := c.sess.UseDB(resp.database); err != nil {
			_ = c.writeStmtErr(seq+1, err)
			return "", err
		}
	}
	if err := c.writePacket(seq+1, buildOK()); err != nil {
		return "", err
	}
	if err := c.flush(); err != nil {
		return "", err
	}
	c.srv.logf("wire: conn %d: user %q tenant %q authenticated", c.id, user.Name, user.Tenant)
	return user.Tenant, nil
}

func (c *conn) commandLoop() error {
	for {
		if c.srv.draining.Load() {
			_ = c.writeErrPacket(0, frontend.MyErrShutdown, "HY000", "Server shutdown in progress")
			return nil
		}
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
		payload, _, err := readPacket(c.br)
		if err != nil {
			if errors.Is(err, net.ErrClosed) || errors.Is(err, context.Canceled) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				_ = c.writeErrPacket(0, frontend.MyErrShutdown, "HY000", "Connection idle timeout")
				return nil
			}
			if strings.Contains(err.Error(), "EOF") || strings.Contains(err.Error(), "reset") {
				return nil // client hung up between commands
			}
			return err
		}
		c.nc.SetReadDeadline(time.Time{})
		c.mu.Lock()
		c.busy = true
		c.mu.Unlock()
		quit, err := c.dispatch(payload)
		c.mu.Lock()
		c.busy = false
		c.mu.Unlock()
		if quit || err != nil {
			return err
		}
	}
}

// dispatch handles one command packet. Responses always start at
// sequence id 1 (each command resets the sequence).
func (c *conn) dispatch(payload []byte) (quit bool, err error) {
	if len(payload) == 0 {
		return false, c.writeErrPacket(1, frontend.MyErrMalformed, "HY000", "empty command packet")
	}
	cmd, body := payload[0], payload[1:]
	c.sess.NextStmt()
	switch cmd {
	case comQuit:
		return true, nil
	case comPing:
		if err := c.writePacket(1, buildOK()); err != nil {
			return false, err
		}
		return false, c.flush()
	case comInitDB:
		if err := c.sess.UseDB(string(body)); err != nil {
			return false, c.writeStmtErr(1, err)
		}
		if err := c.writePacket(1, buildOK()); err != nil {
			return false, err
		}
		return false, c.flush()
	case comQuery:
		return false, c.handleQuery(string(body))
	default:
		msg := fmt.Sprintf("Unknown command 0x%02x", cmd)
		if cmd == comStmtPrepare {
			msg = "Prepared statements are not supported; use the text protocol"
		}
		return false, c.writeErrPacket(1, frontend.MyErrUnknownCom, "08S01", msg)
	}
}

var (
	setStmtRe    = regexp.MustCompile(`(?is)^set\s+(.+)$`)
	useStmtRe    = regexp.MustCompile(`(?is)^use\s+` + "`?" + `([^\s;` + "`" + `]+)` + "`?" + `\s*$`)
	sysvarRe     = regexp.MustCompile(`(?is)^select\s+@@([a-z_][a-z0-9_.]*)`)
	setAssignRe  = regexp.MustCompile(`(?is)^(?:session\s+|@@session\.|@@)?([a-z_][a-z0-9_]*)\s*=\s*(.+)$`)
	trailingSemi = regexp.MustCompile(`;\s*$`)
)

// handleQuery runs one COM_QUERY. Session statements (SET, USE,
// SELECT @@var) are handled as protocol shims; everything else is a VQL
// statement executed by the shared core, with a watcher goroutine that
// cancels the statement's context the moment the client hangs up.
func (c *conn) handleQuery(src string) error {
	stmt := strings.TrimSpace(trailingSemi.ReplaceAllString(strings.TrimSpace(src), ""))
	if m := setStmtRe.FindStringSubmatch(stmt); m != nil {
		return c.handleSet(m[1])
	}
	if m := useStmtRe.FindStringSubmatch(stmt); m != nil {
		if err := c.sess.UseDB(m[1]); err != nil {
			return c.writeStmtErr(1, err)
		}
		if err := c.writePacket(1, buildOK()); err != nil {
			return err
		}
		return c.flush()
	}
	if m := sysvarRe.FindStringSubmatch(stmt); m != nil {
		return c.handleSysvar(m[1])
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.mu.Lock()
	c.cancel = cancel
	c.mu.Unlock()
	// Watch the read side while the statement runs: a client hangup
	// (EOF/reset) cancels the statement so a dead connection cannot hold
	// an admission slot. Peek is non-destructive, so a pipelined next
	// command is left untouched for the command loop.
	peekDone := make(chan struct{})
	go func() {
		defer close(peekDone)
		if _, err := c.br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return // interrupted by the post-statement deadline poke
			}
			cancel()
		}
	}()
	res, qerr := c.srv.cfg.Core.ExecuteTimeout(ctx, c.sess, stmt, c.srv.cfg.QueryTimeout)
	// Unblock the watcher (bufio clears the deadline error after
	// reporting it, so the reader is reusable) and reclaim the read side.
	c.nc.SetReadDeadline(time.Now())
	<-peekDone
	c.nc.SetReadDeadline(time.Time{})
	c.mu.Lock()
	c.cancel = nil
	c.mu.Unlock()
	if qerr != nil {
		return c.writeStmtErr(1, qerr)
	}
	if _, err := writeResultSet(c, 1, res.Columns, res.Types, res.Rows); err != nil {
		return err
	}
	return c.flush()
}

// handleSet applies a SET statement. vap_-prefixed variables map to the
// session's variables (SET vap_deadline = '500ms'); everything else —
// SET NAMES, SET autocommit, driver boilerplate — is acknowledged and
// ignored so stock clients connect cleanly.
func (c *conn) handleSet(rest string) error {
	rest = strings.TrimSpace(rest)
	if m := setAssignRe.FindStringSubmatch(rest); m != nil {
		name := strings.ToLower(m[1])
		if strings.HasPrefix(name, "vap_") {
			value := strings.Trim(strings.TrimSpace(m[2]), `'"`)
			if err := c.sess.Set(strings.TrimPrefix(name, "vap_"), value); err != nil {
				return c.writeStmtErr(1, err)
			}
		}
	}
	if err := c.writePacket(1, buildOK()); err != nil {
		return err
	}
	return c.flush()
}

// handleSysvar answers SELECT @@var probes (mysql CLI and drivers send
// them on connect) with a one-row result set.
func (c *conn) handleSysvar(name string) error {
	value := ""
	switch strings.ToLower(name) {
	case "version_comment":
		value = "VAP analytics engine"
	case "version":
		value = ServerVersion
	case "max_allowed_packet":
		value = "16777215"
	}
	_, err := writeResultSet(c, 1,
		[]string{"@@" + name}, []vql.ColType{vql.TypeString}, [][]any{{value}})
	if err != nil {
		return err
	}
	return c.flush()
}
