package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"
)

// httpClient is one load-generator client: one keep-alive connection, a
// reused read buffer.
type httpClient struct {
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newHTTPClient(addr string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: 120 * time.Second}, base: "http://" + addr}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do sends one request and reads the whole response; the body is valid
// until the next call.
func (h *httpClient) do(method, path, contentType string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	h.buf.Reset()
	if _, err := h.buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, err
	}
	return h.buf.Bytes(), resp.StatusCode, nil
}

// query posts one statement as a raw text body.
func (h *httpClient) query(sql string) ([]byte, int, error) {
	return h.do(http.MethodPost, "/api/query", "text/plain", []byte(sql))
}

func (h *httpClient) get(path string) ([]byte, int, error) {
	return h.do(http.MethodGet, path, "", nil)
}

// getJSON fetches a control-plane document (/api/stats, /api/exec).
func (h *httpClient) getJSON(path string, into any) error {
	body, status, err := h.get(path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, status)
	}
	return json.Unmarshal(body, into)
}

// statusErr turns a transport error or a non-200 into one error.
func statusErr(what string, body []byte, status int, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if status != http.StatusOK {
		msg := strings.TrimSpace(string(body))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("%s: HTTP %d: %s", what, status, msg)
	}
	return nil
}

// queryCells decodes a /api/query response body into cells.
func queryCells(body []byte) ([][]cell, error) {
	var resp struct {
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, err
	}
	out := make([][]cell, len(resp.Rows))
	for r, row := range resp.Rows {
		out[r] = make([]cell, len(row))
		for c, v := range row {
			switch x := v.(type) {
			case nil:
				out[r][c] = cell{Null: true}
			case json.Number:
				f, err := x.Float64()
				if err != nil {
					return nil, err
				}
				out[r][c] = numCell(f)
			case string:
				out[r][c] = cell{S: x}
			default:
				return nil, fmt.Errorf("row %d col %d: unexpected JSON %T", r, c, v)
			}
		}
	}
	return out, nil
}

func wireCells(rows [][]*string) [][]cell {
	out := make([][]cell, len(rows))
	for r, row := range rows {
		out[r] = make([]cell, len(row))
		for c, s := range row {
			out[r][c] = textCell(s)
		}
	}
	return out
}

// ingestFrame appends one binary sample frame (type 0x02) to b.
func ingestFrame(b []byte, meter int64, ts0 int64, vals []float64) []byte {
	b = append(b, 0x02)
	b = binary.LittleEndian.AppendUint64(b, uint64(meter))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(vals)))
	for i, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(ts0+int64(i)*hourS))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

var ingestMagic = []byte("VAPB")

// futureValue is the reading the benchmark sends for meter (customer
// index ci) at hour h past the end of the generated year: the year's own
// values, replayed.
func (w *world) futureValue(ci, h int) float64 {
	r := w.ds.Readings[ci]
	return r[h%len(r)].Value
}

// tally is the generator's record of acknowledged samples past the
// original end of data, per customer index: what the durability check
// compares vapd's answers against after the crash.
type tally struct {
	count []int64
	sum   []float64
}

func newTally(n int) *tally { return &tally{count: make([]int64, n), sum: make([]float64, n)} }

// tickBody builds tick k: hour k past the end, one sample per meter.
func (w *world) tickBody(k int, b []byte) []byte {
	b = append(b[:0], ingestMagic...)
	var v [1]float64
	for ci, c := range w.ds.Customers {
		v[0] = w.futureValue(ci, k)
		b = ingestFrame(b, c.Meter.ID, w.end+int64(k)*hourS, v[:])
	}
	return b
}

// backfillBody builds one backfill request: n hours starting at hour h0
// past the end, for customers [c0, c1).
func (w *world) backfillBody(h0, n, c0, c1 int, b []byte) []byte {
	b = append(b[:0], ingestMagic...)
	vals := make([]float64, n)
	for ci := c0; ci < c1; ci++ {
		for i := range vals {
			vals[i] = w.futureValue(ci, h0+i)
		}
		b = ingestFrame(b, w.ds.Customers[ci].Meter.ID, w.end+int64(h0)*hourS, vals)
	}
	return b
}

// ack records hours [h0, h0+n) of customers [c0, c1) as acknowledged.
func (t *tally) ack(w *world, h0, n, c0, c1 int) {
	for ci := c0; ci < c1; ci++ {
		for i := 0; i < n; i++ {
			t.count[ci]++
			t.sum[ci] += w.futureValue(ci, h0+i)
		}
	}
}
