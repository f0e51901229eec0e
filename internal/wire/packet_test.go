package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"testing"

	"vap/internal/vql"
)

// goldenScramble is the fixed 20-byte challenge the golden encodings
// below were produced with.
var goldenScramble = []byte("ABCDEFGHIJKLMNOPQRST")

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex literal: %v", err)
	}
	return b
}

// TestHandshakeGolden pins the exact Initial Handshake v10 payload: any
// drift in capability flags, charset, status, or layout — which stock
// clients dispatch on — fails loudly here instead of as a mysterious
// client hang.
func TestHandshakeGolden(t *testing.T) {
	want := fromHex(t,
		"0a382e302e302d76617000010000004142434445464748000da2210200080015"+
			"00000000000000000000494a4b4c4d4e4f5051525354006d7973716c5f6e6174"+
			"6976655f70617373776f726400")
	got := buildHandshake(1, goldenScramble)
	if !bytes.Equal(got, want) {
		t.Fatalf("handshake payload drifted:\n got %x\nwant %x", got, want)
	}
}

func TestOKEOFErrGolden(t *testing.T) {
	if got := buildOK(); !bytes.Equal(got, fromHex(t, "00000002000000")) {
		t.Errorf("OK payload = %x", got)
	}
	if got := buildEOF(); !bytes.Equal(got, fromHex(t, "fe00000200")) {
		t.Errorf("EOF payload = %x", got)
	}
	// ERR 1644 (cost rejection) with SQLSTATE 45000: 0xff, errno LE,
	// '#', state, message.
	if got := buildErr(1644, "45000", "cost"); !bytes.Equal(got, fromHex(t, "ff6c06233435303030636f7374")) {
		t.Errorf("ERR payload = %x", got)
	}
	// A non-5-byte SQLSTATE falls back to HY000 rather than corrupting
	// the fixed-width field.
	if got := buildErr(1105, "bad", "m"); !bytes.Equal(got[3:9], []byte("#HY000")) {
		t.Errorf("ERR fallback state = %x", got)
	}
}

// recWriter records framed packets in memory for result-set goldens.
type recWriter struct{ buf bytes.Buffer }

func (r *recWriter) writePacket(seq uint8, payload []byte) error {
	return writePacket(&r.buf, seq, payload)
}

// TestResultSetGolden pins a complete classic text result set — column
// count, three column definitions (time, float, string), EOF, two rows
// (one NULL cell), EOF — including framing and sequence ids.
func TestResultSetGolden(t *testing.T) {
	w := &recWriter{}
	last, err := writeResultSet(w, 1,
		[]string{"day", "avg_kwh", "note"},
		[]vql.ColType{vql.TypeTime, vql.TypeFloat64, vql.TypeString},
		[][]any{
			{int64(1496275200), float64(1.5), "a"},
			{int64(1496361600), nil, "b"},
		})
	if err != nil {
		t.Fatal(err)
	}
	if last != 8 {
		t.Errorf("last sequence id = %d, want 8", last)
	}
	want := fromHex(t,
		"01000001032b000002036465660376617006726573756c7406726573756c7403"+
			"646179036461790c3f00140000000800001f000033000003036465660376617006"+
			"726573756c7406726573756c74076176675f6b7768076176675f6b77680c3f0016"+
			"0000000500001f00002d000004036465660376617006726573756c7406726573756c"+
			"74046e6f7465046e6f74650c210000040000fd00001f000005000005fe0000020011"+
			"0000060a3134393632373532303003312e3501610e0000070a31343936333631363030"+
			"fb016205000008fe00000200")
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatalf("result set stream drifted:\n got %x\nwant %x", w.buf.Bytes(), want)
	}
}

// TestNativePasswordVector pins the mysql_native_password proof against
// a vector computed independently (python hashlib):
// SHA1(scramble ‖ SHA1(SHA1(pw))) XOR SHA1(pw).
func TestNativePasswordVector(t *testing.T) {
	want := fromHex(t, "28441590674285e7d03cae7af237504797f70e91")
	got := nativePasswordToken("secret", goldenScramble)
	if !bytes.Equal(got, want) {
		t.Fatalf("token = %x, want %x", got, want)
	}
	if !checkNativePassword("secret", goldenScramble, want) {
		t.Errorf("valid token rejected")
	}
	if checkNativePassword("secret", goldenScramble, append([]byte(nil), make([]byte, 20)...)) {
		t.Errorf("zero token accepted")
	}
	if tok := nativePasswordToken("", goldenScramble); len(tok) != 0 {
		t.Errorf("empty password token = %x, want empty", tok)
	}
	if !checkNativePassword("", goldenScramble, nil) {
		t.Errorf("password-less login rejected")
	}
	if checkNativePassword("", goldenScramble, want) {
		t.Errorf("token accepted for password-less user")
	}
}

// TestHandshakeResponseRoundTrip drives the server's parser with the
// in-repo client's encoder, covering the auth-token and database fields.
func TestHandshakeResponseRoundTrip(t *testing.T) {
	tok := nativePasswordToken("secret", goldenScramble)
	payload := buildHandshakeResponse("alice", tok)
	resp, err := parseHandshakeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.user != "alice" {
		t.Errorf("user = %q", resp.user)
	}
	if !bytes.Equal(resp.authToken, tok) {
		t.Errorf("token = %x, want %x", resp.authToken, tok)
	}
	if resp.plugin != nativePasswordPlugin {
		t.Errorf("plugin = %q", resp.plugin)
	}
	if _, err := parseHandshakeResponse(payload[:10]); err == nil {
		t.Errorf("truncated response accepted")
	}
	// A pre-4.1 client (no CLIENT_PROTOCOL_41) is rejected.
	old := append([]byte(nil), payload...)
	old[0], old[1] = 0, 0
	if _, err := parseHandshakeResponse(old); err == nil {
		t.Errorf("pre-4.1 response accepted")
	}
}

func TestPacketFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := writePacket(&buf, 3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	payload, seq, err := readPacket(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || string(payload) != "hello" {
		t.Errorf("round trip = seq %d payload %q", seq, payload)
	}
	if err := writePacket(&buf, 0, make([]byte, maxPacketSize)); err == nil {
		t.Errorf("oversized payload accepted")
	}
}

func TestLenencRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xfa, 0xfb, 0xffff, 0x10000, 0xffffff, 0x1000000, 1 << 40} {
		b := appendLenencInt(nil, v)
		got, rest, err := readLenencInt(b)
		if err != nil || got != v || len(rest) != 0 {
			t.Errorf("lenenc(%d) round trip: got %d rest %d err %v", v, got, len(rest), err)
		}
	}
	b := appendLenencString(nil, "zone")
	s, _, err := readLenencString(b)
	if err != nil || s != "zone" {
		t.Errorf("lenenc string round trip: %q %v", s, err)
	}
}

func TestRenderCellMatchesJSON(t *testing.T) {
	cases := []struct {
		cell any
		want string
	}{
		{int64(1496275200), "1496275200"},
		{float64(1.5), "1.5"},
		{float64(0.30000000000000004), "0.30000000000000004"}, // round-trip exact
		{"residential", "residential"},
	}
	for _, c := range cases {
		b, err := appendCell(nil, c.cell)
		if err != nil {
			t.Errorf("appendCell(%v): %v", c.cell, err)
			continue
		}
		if got, rest, err := readLenencString(b); err != nil || len(rest) != 0 || got != c.want {
			t.Errorf("appendCell(%v) = %x (text %q, %d bytes over, err %v), want %q", c.cell, b, got, len(rest), err, c.want)
		}
	}
	// Cells append after what the row already holds and leave it alone.
	if b, _ := appendCell([]byte{nullCell}, int64(-7)); !bytes.Equal(b, []byte{nullCell, 2, '-', '7'}) {
		t.Errorf("appendCell onto a row = %x", b)
	}
	if b, _ := appendCell(nil, nil); !bytes.Equal(b, []byte{nullCell}) {
		t.Errorf("nil cell = %x, want the NULL marker", b)
	}
	if _, err := appendCell(nil, struct{}{}); err == nil {
		t.Errorf("unsupported cell type accepted")
	}
}

func TestParseUsers(t *testing.T) {
	src := "# comment\n\nalice:secret:dash\nbob::\n"
	users, err := ParseUsers(bufio.NewScanner(bytes.NewReader([]byte(src))))
	if err != nil {
		t.Fatal(err)
	}
	if u := users["alice"]; u.Password != "secret" || u.Tenant != "dash" {
		t.Errorf("alice = %+v", u)
	}
	if u := users["bob"]; u.Password != "" || u.Tenant != "" {
		t.Errorf("bob = %+v", u)
	}
	for _, bad := range []string{"alice:x", "alice:a:b\nalice:c:d", ":x:y"} {
		if _, err := ParseUsers(bufio.NewScanner(bytes.NewReader([]byte(bad)))); err == nil {
			t.Errorf("ParseUsers(%q) accepted", bad)
		}
	}
}
