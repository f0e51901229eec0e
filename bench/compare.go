package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readRun(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// windowSpread is how far apart the windows behind a metric lie, as a
// share of its value: their quartile distance, or their range when there
// are fewer than four (the three starts behind setup_s).
func windowSpread(m metric) float64 {
	if len(m.Windows) >= 4 {
		return quartileSpread(m.Windows)
	}
	return (m.Max - m.Min) / m.Value
}

// compareRuns prints, per workload and end-to-end metric, both values,
// the relative difference and the bound. A pairing whose recorded window
// spread (on either side) exceeds the bound is marked unresolved: the
// run cannot tell a regression of that size from noise. It returns 1
// when a resolved metric got worse by more than its bound or a run
// recorded failures, else 0.
func compareRuns(out io.Writer, pathA, pathB string) int {
	a, err := readRun(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readRun(pathB)
	if err != nil {
		fatal(err)
	}
	byName := map[string]*result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	code := 0
	fmt.Fprintf(out, "%-8s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, ra := range a.Results {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(out, "%-8s missing from %s\n", ra.Workload, pathB)
			code = 1
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(out, "%-8s failed requests: a=%d b=%d  VIOLATION (failed_share must be 0)\n", ra.Workload, ra.Failed, rb.Failed)
			code = 1
		}
		for _, d := range endToEnd {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-8s %-18s not measured on both sides\n", ra.Workload, d.Name)
				code = 1
				continue
			}
			w := worseBy(d, ma.Value, mb.Value)
			spread := max(windowSpread(ma), windowSpread(mb))
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = fmt.Sprintf("unresolved (window spread %.1f%%)", spread*100)
			case w > d.Bound:
				verdict = "VIOLATION"
				code = 1
			}
			fmt.Fprintf(out, "%-8s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", ra.Workload, d.Name, ma.Value, mb.Value, w*100, d.Bound*100, verdict)
		}
	}
	return code
}
