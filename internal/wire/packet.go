// Package wire implements a MySQL client/server wire-protocol frontend
// over the shared frontend.Core: handshake v10, mysql_native_password
// auth mapping usernames to tenants, COM_QUERY/COM_PING/COM_QUIT/
// COM_INIT_DB, and text-protocol result sets. Any stock MySQL client or
// driver can run VQL statements and receive exactly the rows the HTTP
// codec returns, with governance rejections surfaced as ERR packets from
// the same error taxonomy (frontend.MapError).
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// maxPacketSize is the largest payload one MySQL packet frame can carry.
// Payloads of exactly this size require continuation frames; VAP result
// rows are tiny, so the writer rejects anything larger instead.
const maxPacketSize = 1<<24 - 1

// Command bytes of the MySQL client/server protocol that the server
// dispatches on.
const (
	comQuit        = 0x01
	comInitDB      = 0x02
	comQuery       = 0x03
	comPing        = 0x0e
	comStmtPrepare = 0x16
)

// Packet header constants.
const (
	okHeader  = 0x00
	eofHeader = 0xfe
	errHeader = 0xff
	nullCell  = 0xfb // text-protocol NULL cell marker
)

// readPacket reads one framed packet: 3-byte little-endian payload
// length, 1-byte sequence id, payload. It returns the payload and the
// sequence id. Multi-frame payloads (16 MiB) are rejected — no VAP
// statement is that long.
func readPacket(r *bufio.Reader) ([]byte, uint8, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16
	seq := hdr[3]
	if n == maxPacketSize {
		return nil, seq, fmt.Errorf("wire: oversized packet (%d bytes)", n)
	}
	// The payload grows as its bytes arrive: a header alone, which any
	// client may send before it authenticates, must not make the server
	// allocate the length it claims.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, seq, err
	}
	return payload.Bytes(), seq, nil
}

// writePacket frames payload with the given sequence id and writes it.
func writePacket(w io.Writer, seq uint8, payload []byte) error {
	if len(payload) >= maxPacketSize {
		return fmt.Errorf("wire: payload too large (%d bytes)", len(payload))
	}
	var hdr [4]byte
	hdr[0] = byte(len(payload))
	hdr[1] = byte(len(payload) >> 8)
	hdr[2] = byte(len(payload) >> 16)
	hdr[3] = seq
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendLenencInt appends a length-encoded integer.
func appendLenencInt(b []byte, v uint64) []byte {
	switch {
	case v < 0xfb:
		return append(b, byte(v))
	case v <= 0xffff:
		return append(b, 0xfc, byte(v), byte(v>>8))
	case v <= 0xffffff:
		return append(b, 0xfd, byte(v), byte(v>>8), byte(v>>16))
	default:
		b = append(b, 0xfe)
		return binary.LittleEndian.AppendUint64(b, v)
	}
}

// appendLenencString appends a length-encoded string.
func appendLenencString(b []byte, s string) []byte {
	b = appendLenencInt(b, uint64(len(s)))
	return append(b, s...)
}

// readLenencInt decodes a length-encoded integer, returning the value
// and the remaining bytes. The 0xfb marker (NULL) and truncated input
// report an error.
func readLenencInt(b []byte) (uint64, []byte, error) {
	if len(b) == 0 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	switch first := b[0]; {
	case first < 0xfb:
		return uint64(first), b[1:], nil
	case first == 0xfc:
		if len(b) < 3 {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return uint64(b[1]) | uint64(b[2])<<8, b[3:], nil
	case first == 0xfd:
		if len(b) < 4 {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return uint64(b[1]) | uint64(b[2])<<8 | uint64(b[3])<<16, b[4:], nil
	case first == 0xfe:
		if len(b) < 9 {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return binary.LittleEndian.Uint64(b[1:9]), b[9:], nil
	default:
		return 0, nil, fmt.Errorf("wire: invalid length-encoded integer marker 0x%02x", first)
	}
}

// readLenencString decodes a length-encoded string.
func readLenencString(b []byte) (string, []byte, error) {
	n, rest, err := readLenencInt(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, io.ErrUnexpectedEOF
	}
	return string(rest[:n]), rest[n:], nil
}

// readNulString reads a NUL-terminated string.
func readNulString(b []byte) (string, []byte, error) {
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), b[i+1:], nil
		}
	}
	return "", nil, io.ErrUnexpectedEOF
}

// buildOK builds an OK packet payload (affected rows and insert id are
// always zero for VAP statements; status flags report autocommit).
func buildOK() []byte {
	b := []byte{okHeader}
	b = appendLenencInt(b, 0) // affected rows
	b = appendLenencInt(b, 0) // last insert id
	b = append(b, 0x02, 0x00) // status: SERVER_STATUS_AUTOCOMMIT
	b = append(b, 0x00, 0x00) // warnings
	return b
}

// buildEOF builds an EOF packet payload (classic protocol; the server
// does not advertise CLIENT_DEPRECATE_EOF).
func buildEOF() []byte {
	return []byte{eofHeader, 0x00, 0x00, 0x02, 0x00}
}

// buildErr builds an ERR packet payload carrying a MySQL errno, a
// SQLSTATE, and a human-readable message.
func buildErr(errno uint16, sqlState, msg string) []byte {
	if len(sqlState) != 5 {
		sqlState = "HY000"
	}
	b := []byte{errHeader}
	b = binary.LittleEndian.AppendUint16(b, errno)
	b = append(b, '#')
	b = append(b, sqlState...)
	return append(b, msg...)
}
