package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"vap/internal/geo"
	"vap/internal/govern"
	"vap/internal/store"
)

// POST /api/ingest is the batched ingest front door: external writers
// stream meter registrations and sample batches in one request body and
// the server rides Store.AppendBatch + WAL group commit, so the wire path
// gets the same ~10x batch amortization the embedded API has. Two body
// encodings share the handler, sniffed from the first four bytes:
//
//   - NDJSON (anything not starting with "VAPB"): one JSON object per
//     line. {"meter":1,"lon":..,"lat":..,"zone":".."} registers a meter;
//     {"meter":1,"ts":..,"v":..} appends one sample;
//     {"meter":1,"samples":[{"ts":..,"v":..},...]} appends a batch.
//   - Binary ("VAPB" magic, little-endian): frames of
//     0x01 meterID(int64) lon(f64) lat(f64) zoneLen(u16) zone — register
//     0x02 meterID(int64) n(u32) then n x (ts int64, value f64) — append
//
// Out-of-order samples and appends to unregistered meters are counted and
// skipped (the response reports both), not failed: replayed NDJSON files
// and at-least-once senders routinely overlap what the store already
// holds. Malformed input is a 400 with the offending line/frame; store
// failures (closed store, WAL errors) are a 500 and abort the request.
// `?sync=1` forces a group commit before replying, so a 200 means every
// accepted sample is fsynced; `sync=0` or none acknowledges without one, and
// any other value is a 400 before the body is read.

// ingestBinaryMagic marks the compact binary framing.
var ingestBinaryMagic = [4]byte{'V', 'A', 'P', 'B'}

const (
	ingestFrameMeter   = 0x01
	ingestFrameSamples = 0x02
	// ingestMaxBatch bounds one binary frame's sample count (16 MiB of
	// payload) so a corrupt length prefix cannot provoke a huge allocation.
	ingestMaxBatch = 1 << 20
	// ingestMaxLine bounds one NDJSON line.
	ingestMaxLine = 16 << 20
)

// ingestLine is the NDJSON union row: registration when lon/lat are
// present, sample(s) otherwise.
type ingestLine struct {
	Meter   *int64         `json:"meter"`
	TS      *int64         `json:"ts"`
	V       *float64       `json:"v"`
	Samples []store.Sample `json:"samples"`
	Lon     *float64       `json:"lon"`
	Lat     *float64       `json:"lat"`
	Zone    string         `json:"zone"`
}

// ingestReport tallies one request's work.
type ingestReport struct {
	Meters       int64 `json:"meters"`
	Samples      int64 `json:"samples"`
	OutOfOrder   int64 `json:"skipped_out_of_order"`
	UnknownMeter int64 `json:"skipped_unknown_meter"`
}

// errIngestBad wraps client-side input errors (400, not 500).
type errIngestBad struct{ err error }

func (e errIngestBad) Error() string { return e.err.Error() }
func (e errIngestBad) Unwrap() error { return e.err }

// errIngestTooLarge wraps size-cap violations (413): a frame or line the
// caller must split, not retry verbatim.
type errIngestTooLarge struct{ err error }

func (e errIngestTooLarge) Error() string { return e.err.Error() }
func (e errIngestTooLarge) Unwrap() error { return e.err }

// capReader records whether the body cap fired. MaxBytesReader returns
// the final in-budget bytes *alongside* its error, so the scanner can
// hand a truncated line to the JSON parser and fail with a parse error
// before anyone observes the cap — the recorder lets the handler classify
// that as 413 (split the upload), not 400 (malformed input).
type capReader struct {
	r   io.Reader
	hit bool
}

func (c *capReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		c.hit = true
	}
	return n, err
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("api: ingest is POST-only"))
		return
	}
	p := newParams(r)
	synced := p.str("sync", "", "0", "1") == "1"
	if p.answered(w) {
		return
	}
	// A declared over-limit body fails before reading (or admitting) it.
	if r.ContentLength > s.cfg.MaxIngestBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("api: ingest body of %d bytes exceeds the %d-byte limit", r.ContentLength, s.cfg.MaxIngestBytes))
		return
	}
	// Ingest admission: writes rank between interactive reads and
	// analytics scans; the declared body size (bounded by the cap) reserves
	// against the memory budget while the batch applies.
	estMem := r.ContentLength
	if estMem <= 0 {
		estMem = 64 << 10 // chunked encoding: a nominal reservation
	}
	ctx := govern.WithTenant(r.Context(), r.Header.Get(TenantHeader))
	grant, gerr := s.an.Gov().Admit(ctx, govern.Request{
		Tenant: govern.TenantFrom(ctx),
		Class:  govern.ClassIngest,
		EstMem: estMem,
	})
	if gerr != nil {
		if !writeGovErr(w, gerr) {
			writeErr(w, http.StatusServiceUnavailable, gerr)
		}
		return
	}
	defer grant.Release()

	start := time.Now()
	st := s.an.Store()
	// MaxBytesReader is the backstop the Content-Length check above cannot
	// provide for chunked bodies: reading past the cap fails the request
	// with a typed *http.MaxBytesError and closes the connection.
	capped := &capReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes)}
	br := bufio.NewReaderSize(capped, 1<<16)
	var rep ingestReport
	magic, _ := br.Peek(4)
	var err error
	if len(magic) == 4 && [4]byte(magic) == ingestBinaryMagic {
		err = s.ingestBinary(br, st, &rep)
	} else {
		err = s.ingestNDJSON(br, st, &rep)
	}
	if err != nil {
		var tooBig errIngestTooLarge
		var mbe *http.MaxBytesError
		var bad errIngestBad
		status := http.StatusInternalServerError
		switch {
		case capped.hit, errors.As(err, &tooBig), errors.As(err, &mbe), errors.Is(err, bufio.ErrTooLong):
			status = http.StatusRequestEntityTooLarge
		case errors.As(err, &bad):
			status = http.StatusBadRequest
		}
		// Failed requests still report the work already applied — samples
		// before the offending line/frame are in the store (and possibly
		// the WAL); the caller needs the counts to resume, not re-send.
		writeJSON(w, status, map[string]interface{}{
			"error":                 err.Error(),
			"meters":                rep.Meters,
			"samples":               rep.Samples,
			"skipped_out_of_order":  rep.OutOfOrder,
			"skipped_unknown_meter": rep.UnknownMeter,
		})
		return
	}
	if synced {
		if err := st.Sync(); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
	}
	elapsed := time.Since(start)
	perSec := float64(0)
	if elapsed > 0 {
		perSec = float64(rep.Samples) / elapsed.Seconds()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":                "ok",
		"meters":                rep.Meters,
		"samples":               rep.Samples,
		"skipped_out_of_order":  rep.OutOfOrder,
		"skipped_unknown_meter": rep.UnknownMeter,
		"duration_ms":           elapsed.Milliseconds(),
		"samples_per_sec":       perSec,
		"synced":                synced,
		"data_version":          s.dataVersion(),
	})
}

// ingestSamples applies one meter's batch, folding the two skippable
// rejections into the report. AppendBatch stops at the first out-of-order
// sample; the remainder of that batch is skipped (an at-least-once sender
// re-sending history hits exactly this) rather than failing the request.
func ingestSamples(st *store.Store, id int64, smps []store.Sample, rep *ingestReport) error {
	if len(smps) == 0 {
		return nil
	}
	n, err := st.AppendBatch(id, smps)
	rep.Samples += int64(n)
	switch {
	case err == nil:
	case errors.Is(err, store.ErrOutOfOrder):
		rep.OutOfOrder += int64(len(smps) - n)
	case errors.Is(err, store.ErrUnknownMeter):
		rep.UnknownMeter += int64(len(smps))
	default:
		return err
	}
	return nil
}

// ingestNDJSON consumes the newline-delimited JSON form.
func (s *Server) ingestNDJSON(br *bufio.Reader, st *store.Store, rep *ingestReport) error {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64<<10), ingestMaxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l ingestLine
		if err := json.Unmarshal(line, &l); err != nil {
			return errIngestBad{fmt.Errorf("api: ingest line %d: %w", lineNo, err)}
		}
		if l.Meter == nil {
			return errIngestBad{fmt.Errorf("api: ingest line %d: missing \"meter\"", lineNo)}
		}
		switch {
		case l.Lon != nil || l.Lat != nil:
			if l.Lon == nil || l.Lat == nil {
				return errIngestBad{fmt.Errorf("api: ingest line %d: registration needs both lon and lat", lineNo)}
			}
			m := store.Meter{ID: *l.Meter, Location: geo.Point{Lon: *l.Lon, Lat: *l.Lat}, Zone: store.ZoneType(l.Zone)}
			if err := st.PutMeter(m); err != nil {
				if errors.Is(err, store.ErrClosed) {
					return err
				}
				return errIngestBad{fmt.Errorf("api: ingest line %d: %w", lineNo, err)}
			}
			rep.Meters++
		case len(l.Samples) > 0:
			if err := ingestSamples(st, *l.Meter, l.Samples, rep); err != nil {
				return err
			}
		case l.TS != nil:
			if l.V == nil {
				return errIngestBad{fmt.Errorf("api: ingest line %d: sample needs \"v\"", lineNo)}
			}
			if err := ingestSamples(st, *l.Meter, []store.Sample{{TS: *l.TS, Value: *l.V}}, rep); err != nil {
				return err
			}
		default:
			return errIngestBad{fmt.Errorf("api: ingest line %d: neither registration (lon/lat), samples, nor ts", lineNo)}
		}
	}
	if err := sc.Err(); err != nil {
		return errIngestBad{fmt.Errorf("api: ingest line %d: %w", lineNo+1, err)}
	}
	return nil
}

// ingestBinary consumes the compact binary framing.
func (s *Server) ingestBinary(br *bufio.Reader, st *store.Store, rep *ingestReport) error {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return errIngestBad{fmt.Errorf("api: ingest: short magic: %w", err)}
	}
	var scratch []store.Sample
	frame := 0
	for {
		frame++
		typ, err := br.ReadByte()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return errIngestBad{fmt.Errorf("api: ingest frame %d: %w", frame, err)}
		}
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return errIngestBad{fmt.Errorf("api: ingest frame %d: truncated meter id: %w", frame, err)}
		}
		id := int64(binary.LittleEndian.Uint64(hdr[:]))
		switch typ {
		case ingestFrameMeter:
			var body [18]byte // lon, lat, zoneLen
			if _, err := io.ReadFull(br, body[:]); err != nil {
				return errIngestBad{fmt.Errorf("api: ingest frame %d: truncated meter body: %w", frame, err)}
			}
			lon := math.Float64frombits(binary.LittleEndian.Uint64(body[0:]))
			lat := math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
			zlen := binary.LittleEndian.Uint16(body[16:])
			zone := make([]byte, zlen)
			if _, err := io.ReadFull(br, zone); err != nil {
				return errIngestBad{fmt.Errorf("api: ingest frame %d: truncated zone: %w", frame, err)}
			}
			m := store.Meter{ID: id, Location: geo.Point{Lon: lon, Lat: lat}, Zone: store.ZoneType(zone)}
			if err := st.PutMeter(m); err != nil {
				if errors.Is(err, store.ErrClosed) {
					return err
				}
				return errIngestBad{fmt.Errorf("api: ingest frame %d: %w", frame, err)}
			}
			rep.Meters++
		case ingestFrameSamples:
			var cnt [4]byte
			if _, err := io.ReadFull(br, cnt[:]); err != nil {
				return errIngestBad{fmt.Errorf("api: ingest frame %d: truncated sample count: %w", frame, err)}
			}
			n := binary.LittleEndian.Uint32(cnt[:])
			if n > ingestMaxBatch {
				return errIngestTooLarge{fmt.Errorf("api: ingest frame %d: batch of %d exceeds the %d-sample frame limit", frame, n, ingestMaxBatch)}
			}
			if cap(scratch) < int(n) {
				scratch = make([]store.Sample, n)
			}
			smps := scratch[:n]
			var pair [16]byte
			for i := range smps {
				if _, err := io.ReadFull(br, pair[:]); err != nil {
					return errIngestBad{fmt.Errorf("api: ingest frame %d: truncated sample %d: %w", frame, i, err)}
				}
				smps[i] = store.Sample{
					TS:    int64(binary.LittleEndian.Uint64(pair[0:])),
					Value: math.Float64frombits(binary.LittleEndian.Uint64(pair[8:])),
				}
			}
			if err := ingestSamples(st, id, smps, rep); err != nil {
				return err
			}
		default:
			return errIngestBad{fmt.Errorf("api: ingest frame %d: unknown frame type 0x%02x", frame, typ)}
		}
	}
}
