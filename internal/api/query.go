package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vap/internal/core"
	"vap/internal/frontend"
	"vap/internal/stream"
)

// maxQueryBytes bounds a /api/query request body.
const maxQueryBytes = 1 << 20

// DeadlineHeader optionally tightens one request's statement deadline
// (a Go duration, e.g. "500ms") below the configured handler timeout —
// the HTTP spelling of the wire protocol's SET vap_deadline.
const DeadlineHeader = "X-VAP-Deadline"

// queryRequest is the JSON body of POST /api/query. A text/plain body is
// also accepted and treated as the raw statement.
type queryRequest struct {
	Query string `json:"query"`
}

// writeStmtErr renders one classified statement error. The taxonomy —
// which error kind maps to which status — lives in frontend.MapError,
// shared with the wire server's ERR-packet encoder; this function only
// shapes the JSON body.
func writeStmtErr(w http.ResponseWriter, err error) {
	info := frontend.MapError(err)
	body := map[string]any{"error": info.Msg}
	switch info.Kind {
	case frontend.KindParse:
		body["line"] = info.Line
		body["col"] = info.Col
	case frontend.KindCost:
		ce := info.Cost
		body["tenant"] = ce.Tenant
		body["est_samples"] = ce.Est
		body["cost_ceiling"] = ce.Ceiling
		body["est_mem_bytes"] = ce.EstMem
		body["mem_budget_bytes"] = ce.MemBudget
	case frontend.KindShed:
		se := info.Shed
		sec := int(info.RetryAfter / time.Second)
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		body["tenant"] = se.Tenant
		body["class"] = string(se.Class)
		body["retry_after_sec"] = sec
	}
	writeJSON(w, info.HTTPStatus, body)
}

// handleQuery is the HTTP codec over the frontend query core: it decodes
// the statement from the request (JSON envelope or raw text), builds a
// per-request session from the tenant and deadline headers, and encodes
// the typed result as JSON. The statement entry point and the error
// taxonomy are frontend.Core's, shared verbatim with the MySQL wire server;
// parse, plan, admission and execution are the analyzer's.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("api: POST a VQL statement to this endpoint"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("api: reading body: %w", err))
		return
	}
	if len(body) > maxQueryBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("api: query exceeds %d bytes", maxQueryBytes))
		return
	}
	src := string(body)
	// Decode a JSON envelope when the Content-Type says so, or when the
	// body plainly is one (curl -d sends x-www-form-urlencoded by default,
	// and no VQL statement starts with '{').
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") || strings.HasPrefix(strings.TrimSpace(src), "{") {
		var req queryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("api: bad JSON body: %w", err))
			return
		}
		src = req.Query
	}
	sess := frontend.NewSession(r.Header.Get(TenantHeader))
	if d := r.Header.Get(DeadlineHeader); d != "" {
		if err := sess.Set("deadline", d); err != nil {
			writeStmtErr(w, err)
			return
		}
	}
	out, err := s.fc.ExecuteTimeout(r.Context(), sess, src, s.cfg.HandlerTimeout)
	if err != nil {
		writeStmtErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The status line is out; a write error means the client is gone.
	_ = encodeQueryResult(w, out, s.dataVersion(), s.writeTimeout)
}

// queryFlushBytes is how much of a response body encodeQueryResult gathers
// before handing it to the connection: a large result is never held whole.
const queryFlushBytes = 32 << 10

// queryBufPool recycles encodeQueryResult's buffers, so a cached dashboard
// statement does not pay for one per response.
var queryBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, queryFlushBytes+4096)
	return &b
}}

// encodeQueryResult writes the /api/query success body: the twelve-key
// envelope, indented by two spaces, with every row of "rows" on a line of
// its own — flush left, because indenting them would be a tenth of a
// 40 320-row body.
// Cells are appended by type — no reflection, no indenter pass over the
// body — and the text of every value is the text encoding/json produces,
// so clients decode the value they always did. Non-finite floats, which
// the executor never emits, become null like its own non-finite aggregates.
func encodeQueryResult(w io.Writer, out *core.VQLOutput, dv stream.DataVersion, timeout time.Duration) error {
	bp := queryBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() {
		if cap(b) <= 2*queryFlushBytes { // a huge plan or cell grew it: let it go
			*bp = b
			queryBufPool.Put(bp)
		}
	}()
	b = append(b, "{\n  \"column_types\": ["...)
	for i, t := range out.Types {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendJSON(b, t)
	}
	b = append(b, "],\n  \"columns\": ["...)
	for i, c := range out.Columns {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendJSON(b, c)
	}
	b = append(b, "],\n  \"data_version\": {\"global\": "...)
	b = strconv.AppendUint(b, dv.Global, 10)
	b = append(b, ", \"fingerprint\": "...)
	b = strconv.AppendUint(b, dv.Fingerprint, 10)
	b = append(b, "},\n  \"explain\": "...)
	b = strconv.AppendBool(b, out.Explain)
	b = append(b, ",\n  \"meters\": "...)
	b = strconv.AppendInt(b, int64(out.Meters), 10)
	b = append(b, ",\n  \"plan\": "...)
	b = appendJSON(b, out.Plan)
	b = append(b, ",\n  \"plan_hash\": "...)
	b = strconv.AppendUint(b, out.PlanHash, 10)
	b = append(b, ",\n  \"row_count\": "...)
	b = strconv.AppendInt(b, int64(len(out.Rows)), 10)
	b = append(b, ",\n  \"rows\": ["...)
	// Zone names repeat down a result: quote each distinct one once.
	var quoted map[string][]byte
	chunked := false // a chunk has gone out; each write from here has a deadline
	for r, row := range out.Rows {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n["...)
		for c, cell := range row {
			if c > 0 {
				b = append(b, ',')
			}
			switch v := cell.(type) {
			case nil:
				b = append(b, "null"...)
			case int64:
				b = strconv.AppendInt(b, v, 10)
			case float64:
				b = appendJSONFloat(b, v)
			case string:
				q, ok := quoted[v]
				if !ok {
					if quoted == nil {
						quoted = make(map[string][]byte)
					}
					q = appendJSON(nil, v)
					quoted[v] = q
				}
				b = append(b, q...)
			default: // not a cell type the executor produces
				b = appendJSON(b, v)
			}
		}
		b = append(b, ']')
		if len(b) >= queryFlushBytes {
			if err := writeChunk(w, b, timeout); err != nil {
				return err
			}
			b, chunked = b[:0], true
		}
	}
	if len(out.Rows) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"samples\": "...)
	b = strconv.AppendInt(b, int64(out.Samples), 10)
	b = append(b, ",\n  \"selection_fingerprint\": "...)
	b = strconv.AppendUint(b, out.SelectionFingerprint, 10)
	b = append(b, ",\n  \"window\": ["...)
	b = strconv.AppendInt(b, out.Window[0], 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, out.Window[1], 10)
	b = append(b, "]\n}\n"...)
	if chunked {
		return writeChunk(w, b, timeout)
	}
	_, err := w.Write(b)
	return err
}

// queryWriteTimeout is the Server's writeTimeout, the bound on each write
// of a multi-chunk /api/query body. http.Server's WriteTimeout is off by
// default, because /api/stream's Server-Sent Events must outlive any fixed
// bound, so without this a client that stops reading an export would hold
// its handler goroutine, and the rows, forever. A reader that takes a
// 32 KiB chunk at all takes it well inside the bound.
const queryWriteTimeout = 5 * time.Second

// writeChunk writes one chunk of a multi-chunk body, under a fresh
// deadline, timeout from now, when w is an HTTP response. The server
// clears the deadline once the response is finished.
func writeChunk(w io.Writer, b []byte, timeout time.Duration) error {
	if rw, ok := w.(http.ResponseWriter); ok {
		// An error means the response cannot take a deadline (a recorder,
		// not a connection): it is written unbounded, as before.
		_ = http.NewResponseController(rw).SetWriteDeadline(time.Now().Add(timeout))
	}
	_, err := w.Write(b)
	return err
}

// appendJSON appends v as encoding/json itself marshals it, null if it
// cannot. Strings go through it, so their escaping (HTML-safe, U+2028/9,
// invalid UTF-8 as U+FFFD) cannot drift from what the other endpoints'
// writeJSON produces.
func appendJSON(b []byte, v any) []byte {
	q, err := json.Marshal(v)
	if err != nil {
		return append(b, "null"...)
	}
	return append(b, q...)
}

// appendJSONFloat appends f in encoding/json's number format: the shortest
// text that round-trips, in exponent form only below 1e-6 or from 1e21 up,
// and then with a single-digit exponent written as one digit (e-07 is
// e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
