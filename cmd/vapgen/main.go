// Command vapgen generates a synthetic smart-meter dataset and either
// writes it into a new durable VAP store directory (as one snapshot, the
// way vapd's first start does; a directory that already holds a store is
// refused), dumps it as CSV, or replays it against a running vapd's
// batched ingest endpoint; with -import-meters/-import-readings it instead
// loads an existing CSV data set (e.g. a real utility export) into a
// store, which may already hold data.
//
// Usage:
//
//	vapgen -dir data/ -seed 42 -days 365
//	vapgen -csv readings.csv -meters meters.csv -days 30
//	vapgen -dir data/ -import-meters meters.csv -import-readings readings.csv
//	vapgen -replay-http http://localhost:8080/api/ingest [-ingest-binary] [-ingest-batch 720] [-ingest-sync]
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"time"

	"vap/internal/csvio"
	"vap/internal/gen"
	"vap/internal/store"
)

func main() {
	dir := flag.String("dir", "", "store directory to load the dataset into")
	csvPath := flag.String("csv", "", "write readings CSV to this path")
	metersPath := flag.String("meters", "", "write meter metadata CSV to this path")
	importMeters := flag.String("import-meters", "", "meters CSV to import into -dir")
	importReadings := flag.String("import-readings", "", "readings CSV to import into -dir")
	seed := flag.Int64("seed", 42, "random seed")
	days := flag.Int("days", 365, "days of hourly data")
	anomaly := flag.Float64("anomaly-rate", 0, "fraction of readings replaced by spikes")
	missing := flag.Float64("missing-rate", 0, "fraction of readings dropped")
	replayHTTP := flag.String("replay-http", "", "replay the generated dataset against a vapd ingest endpoint (e.g. http://localhost:8080/api/ingest)")
	ingestBinary := flag.Bool("ingest-binary", false, "with -replay-http: use the compact binary framing instead of NDJSON")
	ingestBatch := flag.Int("ingest-batch", 720, "with -replay-http: samples per batch line/frame")
	ingestSync := flag.Bool("ingest-sync", false, "with -replay-http: ask the server to fsync before acknowledging (?sync=1)")
	flag.Parse()

	if *importMeters != "" || *importReadings != "" {
		if *dir == "" || *importMeters == "" || *importReadings == "" {
			log.Fatal("vapgen: import mode needs -dir, -import-meters, and -import-readings")
		}
		runImport(*dir, *importMeters, *importReadings)
		return
	}
	if *dir == "" && *csvPath == "" && *metersPath == "" && *replayHTTP == "" {
		log.Fatal("vapgen: need -dir, -csv/-meters, or -replay-http")
	}
	ds := gen.Generate(gen.Config{
		Seed: *seed, Days: *days,
		AnomalyRate: *anomaly, MissingRate: *missing,
	})
	total := 0
	for _, r := range ds.Readings {
		total += len(r)
	}
	log.Printf("generated %d customers, %d readings", len(ds.Customers), total)

	if *replayHTTP != "" {
		runReplayHTTP(*replayHTTP, ds, *ingestBinary, *ingestBatch, *ingestSync)
	}

	if *dir != "" {
		filled := false
		st, err := store.OpenSeeded(store.Options{Dir: *dir}, func(st *store.Store) error {
			filled = true
			return ds.LoadInto(st)
		})
		if err != nil {
			log.Fatalf("open store: %v", err)
		}
		if !filled {
			log.Fatalf("vapgen: %s: directory not empty", *dir)
		}
		stats := st.Stats()
		log.Printf("store: %d meters, %d samples, %.1fx compression",
			stats.Meters, stats.Samples, float64(stats.RawBytes)/float64(stats.CompressedBytes))
		if err := st.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
	}
	if *metersPath != "" {
		meters := make([]store.Meter, len(ds.Customers))
		for i, c := range ds.Customers {
			meters[i] = c.Meter
		}
		if err := writeFile(*metersPath, func(f *os.File) error {
			return csvio.WriteMeters(f, meters)
		}); err != nil {
			log.Fatalf("meters csv: %v", err)
		}
		log.Printf("wrote %s", *metersPath)
	}
	if *csvPath != "" {
		var readings []csvio.Reading
		for i, c := range ds.Customers {
			for _, s := range ds.Readings[i] {
				readings = append(readings, csvio.Reading{MeterID: c.Meter.ID, Sample: s})
			}
		}
		if err := writeFile(*csvPath, func(f *os.File) error {
			return csvio.WriteReadings(f, readings)
		}); err != nil {
			log.Fatalf("readings csv: %v", err)
		}
		log.Printf("wrote %s", *csvPath)
	}
}

// runReplayHTTP streams the dataset to a vapd batched ingest endpoint
// (POST /api/ingest): meter registrations first, then per-meter sample
// batches, in NDJSON or the compact binary framing. The body is produced
// through a pipe, so the whole dataset is never serialized in memory.
func runReplayHTTP(url string, ds *gen.Dataset, useBinary bool, batch int, sync bool) {
	if batch <= 0 {
		batch = 720
	}
	if sync {
		sep := "?"
		for _, c := range url {
			if c == '?' {
				sep = "&"
			}
		}
		url += sep + "sync=1"
	}
	pr, pw := io.Pipe()
	go func() {
		var err error
		if useBinary {
			err = writeIngestBinary(pw, ds, batch)
		} else {
			err = writeIngestNDJSON(pw, ds, batch)
		}
		pw.CloseWithError(err)
	}()
	contentType := "application/x-ndjson"
	if useBinary {
		contentType = "application/octet-stream"
	}
	start := time.Now()
	resp, err := http.Post(url, contentType, pr)
	if err != nil {
		log.Fatalf("replay-http: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("replay-http: server returned %s: %s", resp.Status, body)
	}
	log.Printf("replay-http: done in %v: %s", time.Since(start).Round(time.Millisecond), body)
}

func writeIngestNDJSON(w io.Writer, ds *gen.Dataset, batch int) error {
	enc := json.NewEncoder(w)
	type regLine struct {
		Meter int64   `json:"meter"`
		Lon   float64 `json:"lon"`
		Lat   float64 `json:"lat"`
		Zone  string  `json:"zone"`
	}
	type batchLine struct {
		Meter   int64          `json:"meter"`
		Samples []store.Sample `json:"samples"`
	}
	for _, c := range ds.Customers {
		m := c.Meter
		if err := enc.Encode(regLine{Meter: m.ID, Lon: m.Location.Lon, Lat: m.Location.Lat, Zone: string(m.Zone)}); err != nil {
			return err
		}
	}
	for i, c := range ds.Customers {
		r := ds.Readings[i]
		for off := 0; off < len(r); off += batch {
			end := off + batch
			if end > len(r) {
				end = len(r)
			}
			if err := enc.Encode(batchLine{Meter: c.Meter.ID, Samples: r[off:end]}); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeIngestBinary(w io.Writer, ds *gen.Dataset, batch int) error {
	bw := make([]byte, 0, 64<<10)
	flush := func() error {
		if len(bw) == 0 {
			return nil
		}
		_, err := w.Write(bw)
		bw = bw[:0]
		return err
	}
	le64 := func(v uint64) { bw = binary.LittleEndian.AppendUint64(bw, v) }
	if _, err := w.Write([]byte("VAPB")); err != nil {
		return err
	}
	for _, c := range ds.Customers {
		m := c.Meter
		zone := []byte(m.Zone)
		bw = append(bw, 0x01)
		le64(uint64(m.ID))
		le64(math.Float64bits(m.Location.Lon))
		le64(math.Float64bits(m.Location.Lat))
		bw = binary.LittleEndian.AppendUint16(bw, uint16(len(zone)))
		bw = append(bw, zone...)
		if len(bw) > 32<<10 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	for i, c := range ds.Customers {
		r := ds.Readings[i]
		for off := 0; off < len(r); off += batch {
			end := off + batch
			if end > len(r) {
				end = len(r)
			}
			bw = append(bw, 0x02)
			le64(uint64(c.Meter.ID))
			bw = binary.LittleEndian.AppendUint32(bw, uint32(end-off))
			for _, smp := range r[off:end] {
				le64(uint64(smp.TS))
				le64(math.Float64bits(smp.Value))
			}
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runImport(dir, metersPath, readingsPath string) {
	mf, err := os.Open(metersPath)
	if err != nil {
		log.Fatalf("open meters: %v", err)
	}
	defer mf.Close()
	meters, err := csvio.ReadMeters(mf)
	if err != nil {
		log.Fatalf("parse meters: %v", err)
	}
	rf, err := os.Open(readingsPath)
	if err != nil {
		log.Fatalf("open readings: %v", err)
	}
	defer rf.Close()
	readings, err := csvio.ReadReadings(rf)
	if err != nil {
		log.Fatalf("parse readings: %v", err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	rep, err := csvio.Import(st, meters, readings)
	if err != nil {
		log.Fatalf("import: %v", err)
	}
	if err := st.Snapshot(); err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
	log.Printf("imported %d meters, %d readings (%d skipped) into %s",
		rep.Meters, rep.Readings, rep.Skipped, dir)
}
