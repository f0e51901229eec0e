// Command vapbench regenerates every experiment E1..E10 listed in main: the
// paper has no numbered tables (it is a demo paper), so each figure and
// demo-scenario claim is reproduced as a measurable experiment.
//
// Usage:
//
//	vapbench -all
//	vapbench -exp E3 [-seed 42] [-days 365] [-scale 1.0]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/store"
)

// harness carries the shared dataset and analyzer all experiments use.
type harness struct {
	ds    *gen.Dataset
	st    *store.Store
	an    *core.Analyzer
	seed  int64
	out   *os.File
	start time.Time
}

func main() {
	exp := flag.String("exp", "", "experiment id (E1..E10); empty with -all runs everything")
	all := flag.Bool("all", false, "run all experiments")
	seed := flag.Int64("seed", 42, "dataset seed")
	days := flag.Int("days", 365, "days of synthetic data")
	scale := flag.Float64("scale", 1.0, "population scale factor")
	flag.Parse()

	if !*all && *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	h, err := setup(*seed, *days, *scale)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	defer h.st.Close()

	type runner struct {
		id   string
		desc string
		fn   func(*harness) error
	}
	runners := []runner{
		{"E1", "Figure 1: end-to-end pipeline", runE1},
		{"E2", "Figure 2: flow map method recovers the planted shift", runE2},
		{"E3", "Figure 3/S1: typical patterns separable under t-SNE+Pearson", runE3},
		{"E4", "S1 step 3: t-SNE vs MDS vs SMACOF vs PCA", runE4},
		{"E5", "S1 step 4: k-means baseline vs visual selection", runE5},
		{"E6", "S2 step 1: shift sensitivity vs temporal granularity", runE6},
		{"E7", "S2 step 2: shift sensitivity vs intensity quantile", runE7},
		{"E8", "S2 step 3: near-real-time streaming", runE8},
		{"E9", "S1 step 1: early-birds brushing query", runE9},
		{"E10", "§2.2: REST API latency", runE10},
	}
	want := strings.ToUpper(*exp)
	ran := 0
	for _, r := range runners {
		if !*all && r.id != want {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", r.id, r.desc)
		t0 := time.Now()
		if err := r.fn(h); err != nil {
			log.Fatalf("%s: %v", r.id, err)
		}
		fmt.Printf("--- %s done in %v\n", r.id, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q", *exp)
	}
}

func setup(seed int64, days int, scale float64) (*harness, error) {
	counts := map[gen.Pattern]int{
		gen.PatternBimodal:      scaleN(120, scale),
		gen.PatternEnergySaving: scaleN(100, scale),
		gen.PatternIdle:         scaleN(60, scale),
		gen.PatternConstantHigh: scaleN(80, scale),
		gen.PatternSuspicious:   scaleN(40, scale),
		gen.PatternEarlyBird:    scaleN(60, scale),
	}
	fmt.Printf("generating dataset: seed=%d days=%d scale=%.2f\n", seed, days, scale)
	t0 := time.Now()
	ds := gen.Generate(gen.Config{Seed: seed, Days: days, Counts: counts})
	st, err := store.OpenSeeded(store.Options{}, ds.LoadInto)
	if err != nil {
		return nil, err
	}
	stats := st.Stats()
	fmt.Printf("dataset ready in %v: %d meters, %d samples, %.1fx compression\n",
		time.Since(t0).Round(time.Millisecond), stats.Meters, stats.Samples,
		float64(stats.RawBytes)/float64(stats.CompressedBytes))
	return &harness{ds: ds, st: st, an: core.NewAnalyzer(st), seed: seed, start: time.Now()}, nil
}

func scaleN(n int, s float64) int {
	v := int(float64(n) * s)
	if v < 4 {
		v = 4
	}
	return v
}

// printTable prints an aligned table with a header row.
func printTable(header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// patternCounts tallies ground-truth patterns among a set of meter IDs.
func patternCounts(ds *gen.Dataset, ids []int64) map[gen.Pattern]int {
	idSet := make(map[int64]bool, len(ids))
	for _, id := range ids {
		idSet[id] = true
	}
	out := map[gen.Pattern]int{}
	for _, c := range ds.Customers {
		if idSet[c.Meter.ID] {
			out[c.Pattern]++
		}
	}
	return out
}

// majorityPattern returns the most common pattern and its share.
func majorityPattern(counts map[gen.Pattern]int) (gen.Pattern, float64) {
	total := 0
	var best gen.Pattern
	bestN := -1
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	for _, k := range keys {
		p := gen.Pattern(k)
		n := counts[p]
		total += n
		if n > bestN {
			best, bestN = p, n
		}
	}
	if total == 0 {
		return best, 0
	}
	return best, float64(bestN) / float64(total)
}
