package store

import (
	"math/rand"
	"testing"

	"vap/internal/geo"
)

// TestFingerprintProperties is a property test for selection fingerprints:
// across random mutation sequences,
// Store.Fingerprint(ids) must change iff some id in ids was mutated, and
// must be insensitive to the order of ids.
func TestFingerprintProperties(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		st, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Register a sparse random meter population.
		nMeters := 20 + rng.Intn(40)
		ids := make([]int64, 0, nMeters)
		seen := map[int64]bool{}
		lastTS := map[int64]int64{}
		for len(ids) < nMeters {
			id := int64(1 + rng.Intn(10000))
			if seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
			if err := st.PutMeter(randomMeter(rng, id)); err != nil {
				t.Fatal(err)
			}
		}

		// Track a handful of random selections (subsets of the meter set).
		type tracked struct {
			ids []int64
			in  map[int64]bool
		}
		selections := make([]tracked, 0, 6)
		for s := 0; s < 6; s++ {
			size := 1 + rng.Intn(nMeters)
			perm := rng.Perm(nMeters)
			sel := tracked{in: map[int64]bool{}}
			for _, p := range perm[:size] {
				sel.ids = append(sel.ids, ids[p])
				sel.in[ids[p]] = true
			}
			selections = append(selections, sel)
		}

		for step := 0; step < 60; step++ {
			before := make([]uint64, len(selections))
			for i, sel := range selections {
				before[i] = st.Fingerprint(sel.ids)
			}

			// One mutation: an append or a metadata replacement of one
			// random meter.
			target := ids[rng.Intn(nMeters)]
			if rng.Intn(4) == 0 {
				if err := st.PutMeter(randomMeter(rng, target)); err != nil {
					t.Fatal(err)
				}
			} else {
				lastTS[target] += int64(1 + rng.Intn(7200))
				if err := st.Append(target, Sample{TS: lastTS[target], Value: rng.NormFloat64()}); err != nil {
					t.Fatal(err)
				}
			}

			for i, sel := range selections {
				after := st.Fingerprint(sel.ids)
				if sel.in[target] && after == before[i] {
					t.Fatalf("trial %d step %d: meter %d in selection mutated but fingerprint unchanged",
						trial, step, target)
				}
				if !sel.in[target] && after != before[i] {
					t.Fatalf("trial %d step %d: meter %d outside selection mutated but fingerprint changed %#x -> %#x",
						trial, step, target, before[i], after)
				}
				// Order-insensitivity: a shuffled enumeration of the same
				// set fingerprints identically.
				shuffled := append([]int64(nil), sel.ids...)
				rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
				if got := st.Fingerprint(shuffled); got != after {
					t.Fatalf("trial %d step %d: fingerprint is order-sensitive: %#x != %#x", trial, step, got, after)
				}
			}
		}

		// Registering a brand-new meter leaves explicit selections alone
		// but moves the all-meters (nil) fingerprint.
		allBefore := st.Fingerprint(nil)
		selBefore := st.Fingerprint(selections[0].ids)
		newID := int64(20000 + trial)
		if err := st.PutMeter(randomMeter(rng, newID)); err != nil {
			t.Fatal(err)
		}
		if st.Fingerprint(selections[0].ids) != selBefore {
			t.Fatalf("trial %d: new unrelated meter changed an explicit selection fingerprint", trial)
		}
		if st.Fingerprint(nil) == allBefore {
			t.Fatalf("trial %d: new meter left the all-meters fingerprint unchanged", trial)
		}
		st.Close()
	}
}

func randomMeter(rng *rand.Rand, id int64) Meter {
	zones := []ZoneType{ZoneResidential, ZoneCommercial, ZoneIndustrial, ZoneMixed}
	return Meter{
		ID:       id,
		Location: geo.Point{Lon: 10 + rng.Float64(), Lat: 55 + rng.Float64()},
		Zone:     zones[rng.Intn(len(zones))],
	}
}
