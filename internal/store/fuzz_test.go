package store

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzGorillaRoundTrip drives the Gorilla encoder/decoder with adversarial
// sample streams and payload bytes. The input decodes as a stream of
// (delta int16, value-bits uint64) records:
//
//   - deltas may be zero or negative, exercising the duplicate and
//     out-of-order append paths (which must reject with ErrOutOfOrder and
//     leave the series unchanged);
//   - value bits are arbitrary, including NaN payloads, ±Inf, and
//     subnormals, which must round-trip bit-exactly (semantic float
//     comparison would hide NaN-payload corruption);
//   - every prefix-code boundary of the delta-of-delta coding is reachable
//     via consecutive deltas.
//
// After the accepted appends, the payload must decode to exactly the
// accepted samples; the raw fuzz bytes are also decoded directly (as if a
// chunk's payload were corrupt on disk), which must error or truncate but
// never panic, over-allocate unboundedly, or loop.
func FuzzGorillaRoundTrip(f *testing.F) {
	f.Add(seedStream([]int64{3600, 3600, 3600}, []float64{1.5, 1.5, 2.25}))
	// NaN (two payloads), +Inf, -Inf, negative zero, subnormal.
	f.Add(seedBits([]int64{1, 1, 1, 1, 1, 1},
		[]uint64{
			math.Float64bits(math.NaN()),
			0x7ff8000000000001, // NaN with a different payload
			math.Float64bits(math.Inf(1)),
			math.Float64bits(math.Inf(-1)),
			0x8000000000000000, // -0.0
			1,                  // smallest subnormal
		}))
	// Out-of-order and duplicate timestamps interleaved with valid ones.
	f.Add(seedStream([]int64{10, 0, -5, 10, 1}, []float64{1, 2, 3, 4, 5}))
	// Delta prefix-code boundaries: the dod of consecutive deltas walks
	// the 7/9/12-bit windows and the raw 64-bit fallback (dod 30000-1).
	f.Add(seedStream([]int64{1, 1, 65, 64, 257, 256, 2049, 2048, 30000}, []float64{0, 0, 0, 0, 0, 0, 0, 0, 0}))
	// Value XOR window shrink/grow transitions.
	f.Add(seedBits([]int64{60, 60, 60, 60},
		[]uint64{0xffffffffffffffff, 0xff00000000000000, 0x00000000000000ff, 0x0f0f0f0f0f0f0f0f}))
	// Regression: a lone first sample and the two-sample delta path.
	f.Add(seedStream([]int64{42}, []float64{math.Pi}))
	// Raw garbage for the decode-arbitrary-bytes leg.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		enc := NewEncoder()
		var want []Sample
		var last int64
		for off := 0; off+10 <= len(data); off += 10 {
			delta := int64(int16(binary.LittleEndian.Uint16(data[off:])))
			bits := binary.LittleEndian.Uint64(data[off+2:])
			ts := last + delta
			s := Sample{TS: ts, Value: math.Float64frombits(bits)}
			err := enc.Append(s)
			if enc.Len() > 0 && len(want) > 0 && ts <= last {
				if err != ErrOutOfOrder {
					t.Fatalf("append ts=%d after %d: err=%v, want ErrOutOfOrder", ts, last, err)
				}
				continue // series must be unchanged; keep the old last
			}
			if err != nil {
				t.Fatalf("append %+v: %v", s, err)
			}
			want = append(want, s)
			last = ts
		}
		if enc.Len() != len(want) {
			t.Fatalf("encoder holds %d samples, accepted %d", enc.Len(), len(want))
		}
		payload := enc.Bytes()
		got, err := Decode(payload, len(want))
		if err != nil {
			t.Fatalf("decode %d samples: %v", len(want), err)
		}
		for i := range want {
			if got[i].TS != want[i].TS {
				t.Fatalf("sample %d ts = %d, want %d", i, got[i].TS, want[i].TS)
			}
			if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
				t.Fatalf("sample %d value bits = %#x, want %#x",
					i, math.Float64bits(got[i].Value), math.Float64bits(want[i].Value))
			}
		}

		// Differential leg: the reference decoder (gorilla_ref_test.go) must
		// read the same samples out of the shipping encoder's payload.
		{
			ref := NewIterator(payload, len(want))
			i := 0
			for ; ref.Next(); i++ {
				if s := ref.Sample(); s.TS != want[i].TS ||
					math.Float64bits(s.Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("reference sample %d = (%d, %#x), want (%d, %#x)",
						i, s.TS, math.Float64bits(s.Value),
						want[i].TS, math.Float64bits(want[i].Value))
				}
			}
			if ref.Err() != nil {
				t.Fatalf("reference decode of a valid payload: %v", ref.Err())
			}
			if i != len(want) {
				t.Fatalf("reference decode yielded %d samples, want %d", i, len(want))
			}
		}

		// Count mismatches: the stored count is authoritative (chunk
		// metadata is CRC-protected), and the final byte's <8 padding bits
		// can legally decode as a few phantom 2-bit samples — but a count
		// inflated beyond what padding can hold must run dry with an
		// error, and a deflated count must truncate cleanly.
		if len(want) > 0 {
			if _, err := Decode(payload, len(want)+8); err == nil {
				t.Fatal("decode with count inflated past the padding succeeded")
			}
			if short, err := Decode(payload, len(want)-1); err == nil && len(short) != len(want)-1 {
				t.Fatalf("decode with deflated count returned %d samples", len(short))
			}
		}

		// Arbitrary bytes as a payload (corrupt chunk on disk): any error
		// is fine, panics and runaway allocation are not, and the batch
		// decoder must stop where the reference decoder stops: the same
		// valid prefix, an error on both or on neither.
		for _, n := range []int{0, 1, len(data), len(data) * 8, 1 << 30} {
			if out, err := Decode(data, n); err == nil && len(out) != n {
				t.Fatalf("raw decode n=%d returned %d samples without error", n, len(out))
			}
			ref := NewIterator(data, n)
			var br blockReader
			br.reset(data, n)
			batch := NewBatch()
			total := 0
			for !br.done() {
				batch.Reset()
				got := br.decodeInto(batch)
				total += got
				if got == 0 && !br.done() {
					t.Fatalf("raw batch decode n=%d stalled at %d samples", n, total)
				}
				for k := range batch.TS {
					if !ref.Next() {
						t.Fatalf("raw decode n=%d: reference decoder stopped before sample %d (err %v)", n, total-got+k, ref.Err())
					}
					if s := ref.Sample(); s.TS != batch.TS[k] ||
						math.Float64bits(s.Value) != math.Float64bits(batch.Val[k]) {
						t.Fatalf("raw decode n=%d: sample %d differs from the reference decoder", n, total-got+k)
					}
				}
			}
			if br.err == nil && total != n {
				t.Fatalf("raw batch decode n=%d yielded %d samples without error", n, total)
			}
			if ref.Next() || (ref.Err() == nil) != (br.err == nil) {
				t.Fatalf("raw decode n=%d: batch decoder stopped after %d samples (err %v), reference decoder went on or ended with err %v",
					n, total, br.err, ref.Err())
			}
		}
	})
}

// FuzzWALSegment throws arbitrary bytes at the WAL recovery path as if
// they were the tail segment a crash left behind. Invariants:
//
//   - scanSegment never panics, and a successful scan's valid-prefix end
//     is in bounds and idempotent (rescanning the prefix finds the same
//     boundary cleanly — truncation converges in one step);
//   - openWAL either rejects the file or repairs it, and after a repair an
//     appended record must survive close + reopen + replay with every
//     previously valid record still present — post-crash appends can never
//     land behind garbage, whatever the garbage is.
func FuzzWALSegment(f *testing.F) {
	valid := walMagic[:]
	valid = appendFrame(valid, recMeter, appendMeter(nil, Meter{ID: 3, Zone: ZoneResidential}))
	valid = appendFrame(valid, recSample, samplePayload(nil, 3, Sample{TS: 60, Value: 1.5}))
	valid = appendFrame(valid, recSample, samplePayload(nil, 3, Sample{TS: 120, Value: 2.5}))
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-5]...)) // torn tail
	interior := append([]byte(nil), valid...)
	interior[walHeaderLen+7] ^= 0xff // corrupt the first record, valid ones follow
	f.Add(interior)
	f.Add([]byte{})
	f.Add(walMagic[:2])
	f.Add([]byte("not a wal at all"))
	f.Add(append(append([]byte(nil), valid...), 0xAA, 0xAA, 0xAA)) // garbage suffix

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		end, err := scanSegment(path, data, true, nil, nil)
		if err == nil {
			if end < 0 || end > int64(len(data)) {
				t.Fatalf("scan end %d out of bounds [0, %d]", end, len(data))
			}
			if end >= walHeaderLen {
				end2, err2 := scanSegment(path, data[:end], true, nil, nil)
				if err2 != nil || end2 != end {
					t.Fatalf("rescan of valid prefix: end=%d err=%v, want %d, nil", end2, err2, end)
				}
			}
		}

		w, err := openWAL(osFS{}, Options{Dir: dir, CommitInterval: time.Millisecond})
		if err != nil {
			return // rejected (interior corruption, foreign file): fine
		}
		pre := 0
		if err := w.Replay(
			func(Meter) error { pre++; return nil },
			func(int64, Sample) error { pre++; return nil }); err != nil {
			t.Fatalf("replay of repaired segment: %v", err)
		}
		if err := w.AppendSamples(7, []Sample{{TS: 1 << 40, Value: 3.5}}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := w.Sync(); err != nil {
			t.Fatalf("commit after repair: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close after repair: %v", err)
		}

		w2, err := openWAL(osFS{}, Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
		defer w2.Close()
		post, found := 0, false
		if err := w2.Replay(
			func(Meter) error { post++; return nil },
			func(id int64, s Sample) error {
				post++
				if id == 7 && s.TS == 1<<40 {
					found = true
				}
				return nil
			}); err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		if !found {
			t.Fatal("record appended after tail repair was lost on replay")
		}
		if post != pre+1 {
			t.Fatalf("replay saw %d records, want %d: repair boundary moved after append", post, pre+1)
		}
	})
}

// FuzzSnapshotOpen throws arbitrary bytes at Open as the snapshot.vap a
// durability directory holds: Open must return an error or a store that
// closes, never panic. Whatever opens holds tiers equal to the fold of the
// samples it loaded, and re-snapshots and reopens to the same state. The
// seeds are the golden file of every format. A VAPS / VAP2 input is also
// opened with its whole-file CRC re-sealed, so mutations reach the legacy
// parsers behind the checksum; a VAP3 / VAP4 section carries its own CRC,
// which the loader checks before parsing.
func FuzzSnapshotOpen(f *testing.F) {
	for _, name := range []string{"legacy/v1.vap", "legacy/v2.vap", "legacy/v3.vap", "legacy/v4.vap", "v4.vap"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		open := func(data []byte) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "snapshot.vap"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(Options{Dir: dir})
			if err != nil {
				return
			}
			if err := tiersRebuilt(st); err != nil {
				t.Fatal(err)
			}
			if err := st.Snapshot(); err != nil {
				t.Fatalf("snapshot of a loaded store: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close of a loaded snapshot: %v", err)
			}
			again, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("reopen of a loaded store's snapshot: %v", err)
			}
			parityCompare(t, "reopened", st, again)
			if err := again.Close(); err != nil {
				t.Fatalf("close of the reopened store: %v", err)
			}
		}
		open(data)
		if len(data) >= 8 && ([4]byte(data[:4]) == snapMagic || [4]byte(data[:4]) == snapMagicV2) {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.ChecksumIEEE(sealed[:len(sealed)-4]))
			open(sealed)
		}
	})
}

// seedStream packs (delta, value) records into the fuzz wire format
// (timestamps accumulate from 0; deltas are clipped to int16 like the
// fuzz decoder's view of arbitrary bytes).
func seedStream(deltas []int64, values []float64) []byte {
	bits := make([]uint64, len(values))
	for i, v := range values {
		bits[i] = math.Float64bits(v)
	}
	return seedBits(deltas, bits)
}

func seedBits(deltas []int64, values []uint64) []byte {
	var out []byte
	for i := range deltas {
		var rec [10]byte
		binary.LittleEndian.PutUint16(rec[0:], uint16(int16(deltas[i])))
		binary.LittleEndian.PutUint64(rec[2:], values[i])
		out = append(out, rec[:]...)
	}
	return out
}
