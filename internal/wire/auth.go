package wire

import (
	"crypto/rand"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// ServerVersion is the version string sent in the handshake. The "8.0.0-"
// prefix keeps version-sniffing clients on modern protocol behavior; the
// suffix identifies VAP.
const ServerVersion = "8.0.0-vap"

// nativePasswordPlugin is the only auth plugin the server speaks.
const nativePasswordPlugin = "mysql_native_password"

// Capability flags the server advertises. Deliberately NOT advertised:
// CLIENT_DEPRECATE_EOF (keeps result sets in the classic EOF-terminated
// encoding, which the golden tests pin) and CLIENT_SSL.
const (
	capLongPassword     = 0x00000001
	capLongFlag         = 0x00000004
	capConnectWithDB    = 0x00000008
	capProtocol41       = 0x00000200
	capTransactions     = 0x00002000
	capSecureConnection = 0x00008000
	capPluginAuth       = 0x00080000

	serverCapabilities = capLongPassword | capLongFlag | capConnectWithDB |
		capProtocol41 | capTransactions | capSecureConnection | capPluginAuth
)

// charsetUTF8 is charset id 33 (utf8_general_ci), the connection charset.
const charsetUTF8 = 33

// newScramble returns a 20-byte auth challenge with no zero bytes (the
// handshake carries it as two NUL-terminated chunks, so embedded zeros
// would truncate it on the client side).
func newScramble() ([]byte, error) {
	s := make([]byte, 20)
	if _, err := rand.Read(s); err != nil {
		return nil, err
	}
	for i := range s {
		s[i] = s[i]%94 + 33 // printable ASCII, never zero
	}
	return s, nil
}

// buildHandshake builds the Initial Handshake v10 payload for one
// connection. Pure function of its inputs so golden tests can pin the
// exact encoding.
func buildHandshake(connID uint32, scramble []byte) []byte {
	b := []byte{10} // protocol version
	b = append(b, ServerVersion...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, connID)
	b = append(b, scramble[:8]...) // auth-plugin-data part 1
	b = append(b, 0)               // filler
	b = binary.LittleEndian.AppendUint16(b, uint16(serverCapabilities&0xffff))
	b = append(b, charsetUTF8)
	b = append(b, 0x02, 0x00) // status: SERVER_STATUS_AUTOCOMMIT
	b = binary.LittleEndian.AppendUint16(b, uint16(serverCapabilities>>16))
	b = append(b, byte(len(scramble)+1)) // auth-plugin-data length
	b = append(b, make([]byte, 10)...)   // reserved
	b = append(b, scramble[8:]...)       // auth-plugin-data part 2
	b = append(b, 0)
	b = append(b, nativePasswordPlugin...)
	b = append(b, 0)
	return b
}

// handshakeResponse is the parsed HandshakeResponse41 from the client.
type handshakeResponse struct {
	capabilities uint32
	user         string
	authToken    []byte
	database     string
	plugin       string
}

// parseHandshakeResponse decodes a HandshakeResponse41 payload.
func parseHandshakeResponse(b []byte) (*handshakeResponse, error) {
	if len(b) < 32 {
		return nil, fmt.Errorf("wire: handshake response too short (%d bytes)", len(b))
	}
	r := &handshakeResponse{capabilities: binary.LittleEndian.Uint32(b[0:4])}
	if r.capabilities&capProtocol41 == 0 {
		return nil, fmt.Errorf("wire: client does not speak protocol 4.1")
	}
	rest := b[32:] // skip max packet size (4), charset (1), reserved (23)
	var err error
	if r.user, rest, err = readNulString(rest); err != nil {
		return nil, fmt.Errorf("wire: handshake response: bad username: %w", err)
	}
	const capPluginAuthLenencData = 0x00200000
	switch {
	case r.capabilities&capPluginAuthLenencData != 0:
		var tok string
		if tok, rest, err = readLenencString(rest); err != nil {
			return nil, fmt.Errorf("wire: handshake response: bad auth token: %w", err)
		}
		r.authToken = []byte(tok)
	case r.capabilities&capSecureConnection != 0:
		if len(rest) < 1 || len(rest) < 1+int(rest[0]) {
			return nil, fmt.Errorf("wire: handshake response: truncated auth token")
		}
		n := int(rest[0])
		r.authToken = append([]byte(nil), rest[1:1+n]...)
		rest = rest[1+n:]
	default:
		var tok string
		if tok, rest, err = readNulString(rest); err != nil {
			return nil, fmt.Errorf("wire: handshake response: bad auth token: %w", err)
		}
		r.authToken = []byte(tok)
	}
	if r.capabilities&capConnectWithDB != 0 && len(rest) > 0 {
		if r.database, rest, err = readNulString(rest); err != nil {
			return nil, fmt.Errorf("wire: handshake response: bad database: %w", err)
		}
	}
	if r.capabilities&capPluginAuth != 0 && len(rest) > 0 {
		// Tolerate a missing trailing NUL — some clients omit it.
		if r.plugin, _, err = readNulString(rest); err != nil {
			r.plugin = string(rest)
		}
	}
	return r, nil
}

// nativePasswordToken computes the mysql_native_password proof:
// SHA1(scramble ‖ SHA1(SHA1(password))) XOR SHA1(password). An empty
// password yields an empty token.
func nativePasswordToken(password string, scramble []byte) []byte {
	if password == "" {
		return nil
	}
	h1 := sha1.Sum([]byte(password)) // SHA1(password)
	h2 := sha1.Sum(h1[:])            // SHA1(SHA1(password))
	mix := sha1.New()
	mix.Write(scramble)
	mix.Write(h2[:])
	tok := mix.Sum(nil) // SHA1(scramble ‖ SHA1(SHA1(password)))
	for i := range tok {
		tok[i] ^= h1[i]
	}
	return tok
}

// checkNativePassword verifies the client's auth token against the
// expected password in constant time.
func checkNativePassword(password string, scramble, token []byte) bool {
	want := nativePasswordToken(password, scramble)
	if len(want) == 0 || len(token) == 0 {
		return len(want) == 0 && len(token) == 0
	}
	return subtle.ConstantTimeCompare(want, token) == 1
}

// buildAuthSwitch builds an AuthSwitchRequest asking the client to redo
// auth with mysql_native_password — sent when the client initially
// responded with a different plugin (e.g. caching_sha2_password).
func buildAuthSwitch(scramble []byte) []byte {
	b := []byte{eofHeader}
	b = append(b, nativePasswordPlugin...)
	b = append(b, 0)
	b = append(b, scramble...)
	b = append(b, 0)
	return b
}
