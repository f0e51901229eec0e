package wire

import (
	"bufio"
	"bytes"
	"context"
	"database/sql"
	"database/sql/driver"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// DriverName is the database/sql driver name the test client registers.
// DSN shape: "user:password@host:port/db" (db optional; when present the
// client issues COM_INIT_DB after authenticating).
//
// The client exists so this package's integration tests and
// BenchmarkWireQuery can drive the wire server through database/sql
// without an external MySQL driver dependency; it speaks just enough of
// the protocol for that (text queries, no prepared statements, no TLS).
// It lives in a _test.go file so no binary links database/sql.
const DriverName = "vapwire"

func TestMain(m *testing.M) {
	sql.Register(DriverName, vapDriver{})
	os.Exit(m.Run())
}

// ClientError is a server ERR packet surfaced by the client, exposing
// the MySQL errno so tests can assert the cross-transport taxonomy.
type ClientError struct {
	Errno    uint16
	SQLState string
	Message  string
}

func (e *ClientError) Error() string {
	return fmt.Sprintf("wire: server error %d (%s): %s", e.Errno, e.SQLState, e.Message)
}

type vapDriver struct{}

func (vapDriver) Open(dsn string) (driver.Conn, error) {
	user, pass, addr, db, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &clientConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	if err := c.handshake(user, pass); err != nil {
		nc.Close()
		return nil, err
	}
	if db != "" {
		if err := c.initDB(db); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return c, nil
}

// parseDSN splits "user:password@addr/db" (password and /db optional).
func parseDSN(dsn string) (user, pass, addr, db string, err error) {
	creds, rest, ok := strings.Cut(dsn, "@")
	if !ok {
		return "", "", "", "", fmt.Errorf("wire: bad DSN %q: want user:password@addr/db", dsn)
	}
	user, pass, _ = strings.Cut(creds, ":")
	addr, db, _ = strings.Cut(rest, "/")
	if user == "" || addr == "" {
		return "", "", "", "", fmt.Errorf("wire: bad DSN %q: empty user or address", dsn)
	}
	return user, pass, addr, db, nil
}

// clientConn is one client connection implementing driver.Conn,
// driver.Pinger, driver.QueryerContext, and driver.ExecerContext.
type clientConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func (c *clientConn) send(seq uint8, payload []byte) error {
	if err := writePacket(c.bw, seq, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *clientConn) recv() ([]byte, uint8, error) {
	return readPacket(c.br)
}

// handshake performs the client half of handshake v10 +
// mysql_native_password.
func (c *clientConn) handshake(user, pass string) error {
	payload, _, err := c.recv()
	if err != nil {
		return fmt.Errorf("wire: reading handshake: %w", err)
	}
	if len(payload) > 0 && payload[0] == errHeader {
		return parseErrPacket(payload)
	}
	scramble, err := parseHandshakeV10(payload)
	if err != nil {
		return err
	}
	resp := buildHandshakeResponse(user, nativePasswordToken(pass, scramble))
	if err := c.send(1, resp); err != nil {
		return err
	}
	reply, seq, err := c.recv()
	if err != nil {
		return fmt.Errorf("wire: reading auth result: %w", err)
	}
	if isAuthSwitch(reply) {
		// Server wants mysql_native_password over a fresh scramble.
		_, rest, err := readNulString(reply[1:])
		if err != nil {
			return fmt.Errorf("wire: bad auth switch request: %w", err)
		}
		newScramble := rest
		if n := len(newScramble); n > 0 && newScramble[n-1] == 0 {
			newScramble = newScramble[:n-1]
		}
		if err := c.send(seq+1, nativePasswordToken(pass, newScramble)); err != nil {
			return err
		}
		if reply, _, err = c.recv(); err != nil {
			return fmt.Errorf("wire: reading auth result: %w", err)
		}
	}
	return expectOK(reply)
}

// isAuthSwitch reports whether a server payload is an AuthSwitchRequest.
func isAuthSwitch(payload []byte) bool {
	return len(payload) > 1 && payload[0] == eofHeader && bytes.IndexByte(payload[1:], 0) > 0
}

// parseHandshakeV10 extracts the 20-byte scramble from an Initial
// Handshake v10 payload.
func parseHandshakeV10(b []byte) ([]byte, error) {
	if len(b) < 1 || b[0] != 10 {
		return nil, fmt.Errorf("wire: unexpected handshake protocol version")
	}
	_, rest, err := readNulString(b[1:]) // server version
	if err != nil || len(rest) < 32 {
		return nil, fmt.Errorf("wire: truncated handshake")
	}
	scramble := append([]byte(nil), rest[4:12]...) // part 1 after conn id
	authLen := int(rest[20])
	part2 := authLen - 8 - 1 // minus part 1, minus trailing NUL
	if part2 < 0 || len(rest) < 31+part2 {
		return nil, fmt.Errorf("wire: truncated handshake scramble")
	}
	return append(scramble, rest[31:31+part2]...), nil
}

// buildHandshakeResponse builds a HandshakeResponse41 payload.
func buildHandshakeResponse(user string, token []byte) []byte {
	caps := uint32(capProtocol41 | capSecureConnection | capPluginAuth | capLongPassword)
	b := binary.LittleEndian.AppendUint32(nil, caps)
	b = binary.LittleEndian.AppendUint32(b, maxPacketSize) // max packet size
	b = append(b, charsetUTF8)
	b = append(b, make([]byte, 23)...) // reserved
	b = append(b, user...)
	b = append(b, 0)
	b = append(b, byte(len(token)))
	b = append(b, token...)
	b = append(b, nativePasswordPlugin...)
	b = append(b, 0)
	return b
}

func parseErrPacket(payload []byte) error {
	if len(payload) < 3 || payload[0] != errHeader {
		return fmt.Errorf("wire: malformed ERR packet")
	}
	e := &ClientError{Errno: binary.LittleEndian.Uint16(payload[1:3])}
	rest := payload[3:]
	if len(rest) > 0 && rest[0] == '#' && len(rest) >= 6 {
		e.SQLState = string(rest[1:6])
		rest = rest[6:]
	}
	e.Message = string(rest)
	return e
}

func expectOK(payload []byte) error {
	switch {
	case len(payload) == 0:
		return fmt.Errorf("wire: empty server reply")
	case payload[0] == okHeader:
		return nil
	case payload[0] == errHeader:
		return parseErrPacket(payload)
	default:
		return fmt.Errorf("wire: unexpected reply header 0x%02x", payload[0])
	}
}

func (c *clientConn) initDB(db string) error {
	if err := c.send(0, append([]byte{comInitDB}, db...)); err != nil {
		return err
	}
	payload, _, err := c.recv()
	if err != nil {
		return err
	}
	return expectOK(payload)
}

// --- driver.Conn ---

func (c *clientConn) Prepare(string) (driver.Stmt, error) {
	return nil, fmt.Errorf("wire: prepared statements are not supported")
}

func (c *clientConn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("wire: transactions are not supported")
}

func (c *clientConn) Close() error {
	_ = c.send(0, []byte{comQuit}) // best-effort goodbye
	return c.nc.Close()
}

// Ping implements driver.Pinger via COM_PING.
func (c *clientConn) Ping(ctx context.Context) error {
	defer c.applyDeadline(ctx)()
	if err := c.send(0, []byte{comPing}); err != nil {
		return driver.ErrBadConn
	}
	payload, _, err := c.recv()
	if err != nil {
		return driver.ErrBadConn
	}
	return expectOK(payload)
}

// applyDeadline maps a context deadline onto the socket; the returned
// func clears it.
func (c *clientConn) applyDeadline(ctx context.Context) func() {
	if d, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(d)
		return func() { c.nc.SetDeadline(time.Time{}) }
	}
	return func() {}
}

// QueryContext implements driver.QueryerContext over COM_QUERY text
// result sets. Placeholder args are not supported.
func (c *clientConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("wire: query parameters are not supported")
	}
	defer c.applyDeadline(ctx)()
	if err := c.send(0, append([]byte{comQuery}, query...)); err != nil {
		return nil, driver.ErrBadConn
	}
	return c.readResultSet()
}

// ExecContext implements driver.ExecerContext (SET and friends).
func (c *clientConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("wire: query parameters are not supported")
	}
	defer c.applyDeadline(ctx)()
	if err := c.send(0, append([]byte{comQuery}, query...)); err != nil {
		return nil, driver.ErrBadConn
	}
	payload, _, err := c.recv()
	if err != nil {
		return nil, driver.ErrBadConn
	}
	if len(payload) > 0 && payload[0] != okHeader && payload[0] != errHeader {
		// The statement produced a result set; drain it.
		if _, err := c.finishResultSet(payload); err != nil {
			return nil, err
		}
		return driver.RowsAffected(0), nil
	}
	if err := expectOK(payload); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// readResultSet reads a server reply that should be a result set (or OK
// for row-less statements, or ERR).
func (c *clientConn) readResultSet() (driver.Rows, error) {
	payload, _, err := c.recv()
	if err != nil {
		return nil, driver.ErrBadConn
	}
	if len(payload) > 0 && payload[0] == okHeader {
		return &clientRows{}, nil
	}
	if len(payload) > 0 && payload[0] == errHeader {
		return nil, parseErrPacket(payload)
	}
	return c.finishResultSet(payload)
}

// finishResultSet parses a text result set given its already-read column
// count packet.
func (c *clientConn) finishResultSet(countPkt []byte) (*clientRows, error) {
	n, _, err := readLenencInt(countPkt)
	if err != nil {
		return nil, fmt.Errorf("wire: bad column count packet: %w", err)
	}
	rows := &clientRows{}
	for i := uint64(0); i < n; i++ {
		payload, _, err := c.recv()
		if err != nil {
			return nil, driver.ErrBadConn
		}
		name, err := columnNameFromDef(payload)
		if err != nil {
			return nil, err
		}
		rows.cols = append(rows.cols, name)
	}
	payload, _, err := c.recv() // EOF after column definitions
	if err != nil {
		return nil, driver.ErrBadConn
	}
	if len(payload) == 0 || payload[0] != eofHeader {
		return nil, fmt.Errorf("wire: expected EOF after column definitions")
	}
	for {
		payload, _, err := c.recv()
		if err != nil {
			return nil, driver.ErrBadConn
		}
		if len(payload) > 0 && payload[0] == eofHeader && len(payload) < 9 {
			return rows, nil
		}
		if len(payload) > 0 && payload[0] == errHeader {
			return nil, parseErrPacket(payload)
		}
		row, err := parseTextRow(payload, len(rows.cols))
		if err != nil {
			return nil, err
		}
		rows.rows = append(rows.rows, row)
	}
}

// columnNameFromDef extracts the column name from a Column Definition 41
// payload (catalog, schema, table, org_table, name, ...).
func columnNameFromDef(b []byte) (string, error) {
	rest := b
	var err error
	for i := 0; i < 4; i++ { // catalog, schema, table, org_table
		if _, rest, err = readLenencString(rest); err != nil {
			return "", fmt.Errorf("wire: bad column definition: %w", err)
		}
	}
	name, _, err := readLenencString(rest)
	if err != nil {
		return "", fmt.Errorf("wire: bad column definition: %w", err)
	}
	return name, nil
}

// parseTextRow decodes one text-protocol row into driver values
// (strings, nil for NULL). database/sql's convertAssign converts
// strings into the caller's Scan targets.
func parseTextRow(b []byte, ncols int) ([]driver.Value, error) {
	row := make([]driver.Value, 0, ncols)
	rest := b
	for len(row) < ncols {
		if len(rest) == 0 {
			return nil, io.ErrUnexpectedEOF
		}
		if rest[0] == nullCell {
			row = append(row, nil)
			rest = rest[1:]
			continue
		}
		var cell string
		var err error
		if cell, rest, err = readLenencString(rest); err != nil {
			return nil, fmt.Errorf("wire: bad row cell: %w", err)
		}
		row = append(row, cell)
	}
	return row, nil
}

// clientRows is a fully materialized result set.
type clientRows struct {
	cols []string
	rows [][]driver.Value
	i    int
}

func (r *clientRows) Columns() []string { return r.cols }
func (r *clientRows) Close() error      { return nil }

func (r *clientRows) Next(dest []driver.Value) error {
	if r.i >= len(r.rows) {
		return io.EOF
	}
	copy(dest, r.rows[r.i])
	r.i++
	return nil
}
