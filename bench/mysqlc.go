package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// mysqlConn is the benchmark's own MySQL wire client: handshake v10
// without a password, COM_QUERY, classic (EOF-terminated) text result
// sets, ERR packets surfaced with their errno — only what the load
// generator needs, so it does not depend on the in-repo test driver.
type mysqlConn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte // reused packet payload buffer
}

// mysqlError is a server ERR packet.
type mysqlError struct {
	Errno   uint16
	Message string
}

func (e *mysqlError) Error() string { return fmt.Sprintf("mysql: error %d: %s", e.Errno, e.Message) }

const (
	myCapLongPassword     = 0x00000001
	myCapProtocol41       = 0x00000200
	myCapSecureConnection = 0x00008000
	myCapPluginAuth       = 0x00080000
	myOK, myEOF, myERR    = 0x00, 0xfe, 0xff
	myNull, myComQuery    = 0xfb, 0x03
)

// dialMySQL connects and authenticates as user (no password).
func dialMySQL(addr, user string) (*mysqlConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &mysqlConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	if err := c.handshake(user); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *mysqlConn) Close() error { return c.nc.Close() }

// readPacket reads one frame into the reused buffer; the payload is only
// valid until the next read.
func (c *mysqlConn) readPacket() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	_, err := io.ReadFull(c.br, c.buf)
	return c.buf, err
}

func (c *mysqlConn) writePacket(seq byte, payload []byte) error {
	n := len(payload)
	_, err := c.nc.Write(append([]byte{byte(n), byte(n >> 8), byte(n >> 16), seq}, payload...))
	return err
}

func parseERR(p []byte) error {
	if len(p) < 3 {
		return errors.New("mysql: malformed ERR packet")
	}
	e := &mysqlError{Errno: binary.LittleEndian.Uint16(p[1:3])}
	rest := p[3:]
	if len(rest) >= 6 && rest[0] == '#' { // SQL state marker
		rest = rest[6:]
	}
	e.Message = string(rest)
	return e
}

func (c *mysqlConn) handshake(user string) error {
	p, err := c.readPacket()
	if err != nil {
		return fmt.Errorf("mysql: reading handshake: %w", err)
	}
	if len(p) > 0 && p[0] == myERR {
		return parseERR(p)
	}
	if len(p) == 0 || p[0] != 10 {
		return errors.New("mysql: server does not speak handshake v10")
	}
	resp := binary.LittleEndian.AppendUint32(nil, myCapLongPassword|myCapProtocol41|myCapSecureConnection|myCapPluginAuth)
	resp = binary.LittleEndian.AppendUint32(resp, 1<<24-1) // max packet
	resp = append(resp, 33)                                // utf8_general_ci
	resp = append(resp, make([]byte, 23)...)
	resp = append(resp, user...)
	resp = append(resp, 0, 0) // NUL, then an empty auth token (no password)
	resp = append(resp, "mysql_native_password\x00"...)
	if err := c.writePacket(1, resp); err != nil {
		return err
	}
	if p, err = c.readPacket(); err != nil {
		return fmt.Errorf("mysql: reading auth result: %w", err)
	}
	if len(p) > 0 && p[0] == myERR {
		return parseERR(p)
	}
	if len(p) == 0 || p[0] != myOK {
		return errors.New("mysql: unexpected auth reply")
	}
	return nil
}

// lenenc decodes a length-encoded integer.
func lenenc(b []byte) (v uint64, rest []byte, err error) {
	if len(b) == 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if b[0] < 0xfc {
		return uint64(b[0]), b[1:], nil
	}
	width := [...]int{2, 3, 8, 0}[b[0]-0xfc] // 0xfc, 0xfd, 0xfe prefixes
	if len(b) < 1+width {
		return 0, nil, io.ErrUnexpectedEOF
	}
	for i := width; i >= 1; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, b[1+width:], nil
}

// Query sends one COM_QUERY. With keep it returns the rows as text cells
// (nil = NULL); without, it only counts them, so a timed run does not pay
// for materialising 40 000 rows in the load generator.
func (c *mysqlConn) Query(sql string, keep bool) (rows [][]*string, n int, err error) {
	if err = c.writePacket(0, append([]byte{myComQuery}, sql...)); err != nil {
		return nil, 0, err
	}
	p, err := c.readPacket()
	if err != nil {
		return nil, 0, err
	}
	if len(p) > 0 && p[0] == myERR {
		return nil, 0, parseERR(p)
	}
	if len(p) > 0 && p[0] == myOK { // a statement without a result set
		return nil, 0, nil
	}
	ncols, _, err := lenenc(p)
	if err != nil {
		return nil, 0, err
	}
	for i := uint64(0); i <= ncols; i++ { // column definitions, then EOF
		if p, err = c.readPacket(); err != nil {
			return nil, 0, err
		}
	}
	if len(p) == 0 || p[0] != myEOF {
		return nil, 0, errors.New("mysql: expected EOF after column definitions")
	}
	for {
		if p, err = c.readPacket(); err != nil {
			return nil, 0, err
		}
		if len(p) > 0 && p[0] == myEOF && len(p) < 9 {
			return rows, n, nil
		}
		if len(p) > 0 && p[0] == myERR {
			return nil, 0, parseERR(p)
		}
		n++
		if !keep {
			continue
		}
		row := make([]*string, 0, ncols)
		for rest := p; uint64(len(row)) < ncols; {
			if len(rest) > 0 && rest[0] == myNull {
				row, rest = append(row, nil), rest[1:]
				continue
			}
			l, r, err := lenenc(rest)
			if err != nil || uint64(len(r)) < l {
				return nil, 0, errors.New("mysql: malformed row")
			}
			s := string(r[:l])
			row, rest = append(row, &s), r[l:]
		}
		rows = append(rows, row)
	}
}
