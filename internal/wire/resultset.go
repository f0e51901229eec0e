package wire

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"vap/internal/frontend"
	"vap/internal/vql"
)

// MySQL column type bytes for the column definition packets.
const (
	mysqlTypeDouble    = 0x05
	mysqlTypeLongLong  = 0x08
	mysqlTypeVarString = 0xfd
)

// charsetBinary is charset id 63, used for numeric columns.
const charsetBinary = 63

// colDef is the wire shape of one column: the MySQL type byte, the
// column charset, and a display length.
type colDef struct {
	mysqlType byte
	charset   uint16
	length    uint32
}

// colDefFor maps a frontend column type to its wire definition. Bucket
// timestamps (TypeTime) stay 64-bit integers on the wire — exactly the
// value the HTTP codec returns — so the two transports' rows are
// byte-for-byte comparable.
func colDefFor(t vql.ColType) colDef {
	switch t {
	case vql.TypeInt64, vql.TypeTime:
		return colDef{mysqlType: mysqlTypeLongLong, charset: charsetBinary, length: 20}
	case vql.TypeFloat64:
		return colDef{mysqlType: mysqlTypeDouble, charset: charsetBinary, length: 22}
	default:
		return colDef{mysqlType: mysqlTypeVarString, charset: charsetUTF8, length: 1024}
	}
}

// buildColumnDef builds a Column Definition 41 payload.
func buildColumnDef(name string, t vql.ColType) []byte {
	def := colDefFor(t)
	b := appendLenencString(nil, "def")              // catalog
	b = appendLenencString(b, frontend.DatabaseName) // schema
	b = appendLenencString(b, "result")              // table
	b = appendLenencString(b, "result")              // org_table
	b = appendLenencString(b, name)                  // name
	b = appendLenencString(b, name)                  // org_name
	b = append(b, 0x0c)                              // fixed-length fields length
	b = binary.LittleEndian.AppendUint16(b, def.charset)
	b = binary.LittleEndian.AppendUint32(b, def.length)
	b = append(b, def.mysqlType)
	b = append(b, 0x00, 0x00) // flags
	b = append(b, 0x1f)       // decimals (31 = dynamic)
	b = append(b, 0x00, 0x00) // filler
	return b
}

// appendCell appends one typed result cell in its text-protocol encoding:
// the NULL marker, or the value's text as a length-encoded string. The
// texts match what the JSON codec emits for the same cell, so a wire
// client and an HTTP client see identical values.
func appendCell(b []byte, cell any) ([]byte, error) {
	switch v := cell.(type) {
	case nil:
		return append(b, nullCell), nil
	case int64:
		return patchLen(strconv.AppendInt(append(b, 0), v, 10), len(b)), nil
	case float64:
		return patchLen(strconv.AppendFloat(append(b, 0), v, 'g', -1, 64), len(b)), nil
	case string:
		return appendLenencString(b, v), nil
	default:
		return b, fmt.Errorf("wire: unsupported cell type %T", cell)
	}
}

// patchLen fills in the length byte reserved at b[at] for the number text
// appended after it: a formatted int64 or float64 is at most 24 bytes, so
// its length-encoded prefix is always the one byte.
func patchLen(b []byte, at int) []byte {
	b[at] = byte(len(b) - at - 1)
	return b
}

// writeResultSet writes a complete classic-protocol text result set:
// column count, column definitions, EOF, rows, EOF. seq is the first
// sequence id to use (ids wrap at 256, as the protocol says); the last
// sequence id used is returned so callers continue numbering correctly.
func writeResultSet(w pktWriter, seq uint8, cols []string, types []vql.ColType, rows [][]any) (uint8, error) {
	if err := w.writePacket(seq, appendLenencInt(nil, uint64(len(cols)))); err != nil {
		return seq, err
	}
	for i, name := range cols {
		t := vql.TypeString
		if i < len(types) {
			t = types[i]
		}
		seq++
		if err := w.writePacket(seq, buildColumnDef(name, t)); err != nil {
			return seq, err
		}
	}
	seq++
	if err := w.writePacket(seq, buildEOF()); err != nil {
		return seq, err
	}
	var payload []byte // one buffer for every row: writePacket copies it out
	for _, row := range rows {
		payload = payload[:0]
		for _, cell := range row {
			var err error
			if payload, err = appendCell(payload, cell); err != nil {
				return seq, err
			}
		}
		seq++
		if err := w.writePacket(seq, payload); err != nil {
			return seq, err
		}
	}
	seq++
	if err := w.writePacket(seq, buildEOF()); err != nil {
		return seq, err
	}
	return seq, nil
}

// pktWriter is the minimal packet sink writeResultSet needs — the
// server's per-connection locked writer implements it, and tests can
// substitute an in-memory recorder. writePacket must not keep payload.
type pktWriter interface {
	writePacket(seq uint8, payload []byte) error
}
