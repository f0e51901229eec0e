package main

import (
	"math/rand"
	"testing"
)

var testWorlds = map[int64]*world{}

// worldFor caches generated datasets across tests (0.3 s each).
func worldFor(seed int64) *world {
	if w, ok := testWorlds[seed]; ok {
		return w
	}
	w := newWorld(seed)
	testWorlds[seed] = w
	return w
}

func TestStreamHashSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a := streamHash(newWorld(1), name, 1, 32)
		b := streamHash(newWorld(1), name, 1, 32)
		if a != b {
			t.Errorf("%s: seed 1 hashed to %s and then %s", name, a, b)
		}
		if c := streamHash(worldFor(2), name, 2, 32); c == a {
			t.Errorf("%s: seeds 1 and 2 share the hash %s", name, a)
		}
	}
}

// TestSafeFanoutMatchesChunkArithmetic pins the guard to the arithmetic
// it guards against: with -workers 2 the executor cuts n meters into
// min(8, n) chunks of ceil(n/chunks) and slices chunk c at c*size.
func TestSafeFanoutMatchesChunkArithmetic(t *testing.T) {
	for n := 1; n <= 600; n++ {
		chunks := min(8, n)
		size := (n + chunks - 1) / chunks
		panics := (chunks-1)*size > n
		if safeFanout(n) && panics {
			t.Errorf("n=%d passes the guard but chunk %d starts at %d", n, chunks-1, (chunks-1)*size)
		}
	}
	for _, n := range []int{9, 13, 17, 20, 25, 27, 33, 34, 41} {
		if safeFanout(n) {
			t.Errorf("n=%d is a known failing size and passes the guard", n)
		}
	}
}

func TestEverySelectionPassesTheGuard(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := worldFor(seed)
		check := func(what string, s *stmt) {
			if n := len(s.Sel.IDs); n == 0 || !safeFanout(n) {
				t.Errorf("seed %d %s: selection of %d meters: %s", seed, what, n, s.SQL)
			}
		}
		for _, last := range []bool{false, true} {
			stmts := dashSet(w, rand.New(rand.NewSource(seed)), last)
			if len(stmts) != dashSetSize {
				t.Fatalf("seed %d: %d dashboard statements, want %d", seed, len(stmts), dashSetSize)
			}
			seen := map[string]bool{}
			for i := range stmts {
				check("dash", &stmts[i])
				if seen[stmts[i].SQL] {
					t.Errorf("seed %d: duplicate dashboard statement %s", seed, stmts[i].SQL)
				}
				seen[stmts[i].SQL] = true
			}
		}
		windows := map[[2]int64]bool{}
		for _, s := range scanStreams(w, seed) {
			for i := 0; i < 300; i++ {
				q := s.next()
				check("scan", &q)
				if q.Class == "narrow" && int64(len(q.Sel.IDs))*(q.To-q.From)/hourS >= 2_000_000 {
					t.Errorf("seed %d: narrow scan over the interactive cutoff: %s", seed, q.SQL)
				}
				if q.To > w.end {
					t.Errorf("seed %d: window past the data: %s", seed, q.SQL)
				}
				key := [2]int64{q.From, q.To}
				if windows[key] {
					t.Errorf("seed %d: window %v asked for twice", seed, key)
				}
				windows[key] = true
			}
		}
	}
}

func TestSelBoxHoldsExactlyK(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		w := worldFor(seed)
		for _, k := range []int{wideBoxMeters, dashBoxMeters, dashBoxMeters + 32} {
			if got := len(w.selBox(k).IDs); got != k {
				t.Errorf("seed %d: box for %d meters holds %d", seed, k, got)
			}
		}
	}
}

func TestScanStreamMix(t *testing.T) {
	s := newScanStream(worldFor(1), rand.New(rand.NewSource(1)), 0, 1)
	narrow, wide, daily := 0, 0, 0
	for i := 0; i < 100; i++ {
		q := s.next()
		switch q.Class {
		case "wide":
			wide++
			if rows := int64(len(q.Sel.IDs)) * (q.To - q.From) / hourS; rows != wideBoxMeters*720 {
				t.Errorf("wide statement yields %d rows", rows)
			}
		case "narrow":
			narrow++
			if q.Bucket == "daily" {
				daily++
			}
		}
	}
	if narrow != 80 || wide != 20 || daily != 32 {
		t.Errorf("100 statements: %d narrow (%d daily), %d wide; want 80 (32), 20", narrow, daily, wide)
	}
}

func TestExploreSessionShape(t *testing.T) {
	w := worldFor(1)
	reqs := exploreSession(w, rand.New(rand.NewSource(1)), 1, 0)
	count := map[string]int{}
	for _, r := range reqs {
		count[r.Class]++
	}
	if count["reduce"] != 1 || count["flow"] != flowsPerSes || count["view"] != brushesPerSes+2+seriesPerSes {
		t.Errorf("session has %v", count)
	}
}
