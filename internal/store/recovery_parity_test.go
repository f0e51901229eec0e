package store

// Property-based recovery parity: random stores snapshotted with WAL
// records layered on top must recover — serially and with a worker pool —
// into state bit-identical to a live-built store: GlobalFingerprint,
// per-meter versions, rollup tiers, and every scanned row.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

const parityShards = 4 // GlobalFingerprint folds per-shard versions, so all compared stores share this

type parityMeter struct {
	id   int64
	pre  []Sample // appended before the snapshot
	post []Sample // appended after it, recovered from the WAL
}

// genParityMeters draws a random meter population: sample counts from 0 to
// ~2000 (zero, head-only, and multi-chunk series all occur), irregular
// gaps, and occasional NaN/±Inf values to exercise bitwise compares.
func genParityMeters(rng *rand.Rand) []parityMeter {
	out := make([]parityMeter, 8+rng.Intn(8))
	for i := range out {
		ts := int64(rng.Intn(1000))
		mk := func(n int) []Sample {
			smps := make([]Sample, n)
			for j := range smps {
				ts += int64(1 + rng.Intn(120))
				v := rng.NormFloat64() * 100
				switch rng.Intn(50) {
				case 0:
					v = math.NaN()
				case 1:
					v = math.Inf(1)
				case 2:
					v = math.Inf(-1)
				}
				smps[j] = Sample{TS: ts, Value: v}
			}
			return smps
		}
		out[i] = parityMeter{id: int64(i + 1), pre: mk(rng.Intn(2001)), post: mk(rng.Intn(200))}
	}
	return out
}

func parityApply(t *testing.T, st *Store, meters []parityMeter, phase int) {
	t.Helper()
	for _, m := range meters {
		smps := m.post
		if phase == 0 {
			if err := st.PutMeter(testMeter(m.id)); err != nil {
				t.Fatal(err)
			}
			smps = m.pre
		}
		if len(smps) == 0 {
			continue
		}
		if _, err := st.AppendBatch(m.id, smps); err != nil {
			t.Fatal(err)
		}
	}
}

// buildParityDir materializes the population into a durable store: pre
// samples, snapshot, then post samples left in the WAL for recovery to
// replay.
func buildParityDir(t *testing.T, meters []parityMeter) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, Shards: parityShards})
	if err != nil {
		t.Fatal(err)
	}
	parityApply(t, st, meters, 0)
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	parityApply(t, st, meters, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func captureTiersOf(t *testing.T, st *Store, id int64) []tierView {
	t.Helper()
	sh := st.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ser, ok := sh.series[id]
	if !ok {
		t.Fatalf("meter %d missing", id)
	}
	return tierCaptures(ser)
}

// parityCompare asserts store b is bit-identical to reference a.
func parityCompare(t *testing.T, label string, a, b *Store) {
	t.Helper()
	if af, bf := a.GlobalFingerprint(), b.GlobalFingerprint(); af != bf {
		t.Errorf("%s: GlobalFingerprint %#x, want %#x", label, bf, af)
	}
	aIDs, bIDs := a.Catalog().IDs(), b.Catalog().IDs()
	if len(aIDs) != len(bIDs) {
		t.Fatalf("%s: %d meters, want %d", label, len(bIDs), len(aIDs))
	}
	for _, id := range aIDs {
		if av, bv := meterVersion(a, id), meterVersion(b, id); av != bv {
			t.Errorf("%s meter %d: version %d, want %d", label, id, bv, av)
		}
		as, err := a.Range(id, minInt64, maxInt64)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := b.Range(id, minInt64, maxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if len(as) != len(bs) {
			t.Errorf("%s meter %d: %d rows, want %d", label, id, len(bs), len(as))
			continue
		}
		for j := range as {
			if as[j].TS != bs[j].TS || math.Float64bits(as[j].Value) != math.Float64bits(bs[j].Value) {
				t.Errorf("%s meter %d row %d: %+v, want %+v", label, id, j, bs[j], as[j])
				break
			}
		}
		at := captureTiersOf(t, a, id)
		bt := captureTiersOf(t, b, id)
		if len(at) != len(bt) {
			t.Errorf("%s meter %d: %d tiers, want %d", label, id, len(bt), len(at))
			continue
		}
		for i := range at {
			g, w := &bt[i], &at[i]
			gb, wb := flatBuckets(g), flatBuckets(w)
			if g.res != w.res || len(gb) != len(wb) || g.hasTail != w.hasTail {
				t.Errorf("%s meter %d tier %d: shape (res=%d buckets=%d tail=%t), want (res=%d buckets=%d tail=%t)",
					label, id, i, g.res, len(gb), g.hasTail, w.res, len(wb), w.hasTail)
				continue
			}
			for j := range gb {
				if !rollupBucketEqual(&gb[j], &wb[j]) {
					t.Errorf("%s meter %d %ds tier bucket %d: %+v, want %+v",
						label, id, g.res, j, gb[j], wb[j])
					break
				}
			}
		}
	}
}

func TestRecoveryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			meters := genParityMeters(rng)
			ref, err := Open(Options{Shards: parityShards}) // live-built in-memory reference
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			parityApply(t, ref, meters, 0)
			parityApply(t, ref, meters, 1)

			dir := buildParityDir(t, meters)
			for _, workers := range []int{1, 8} {
				name := fmt.Sprintf("workers=%d", workers)
				st, err := Open(Options{Dir: dir, Shards: parityShards, RecoverWorkers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				parityCompare(t, name, ref, st)
				st.Close()
			}
		})
	}
}
