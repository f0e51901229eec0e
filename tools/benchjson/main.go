// Command benchjson turns `go test -bench` output into a JSON trajectory
// artifact. Each invocation parses one bench run from stdin and appends a
// dated entry to the -out file (creating it when absent), so the file
// accumulates one entry per measurement over the repo's history and
// regressions show up as a trend, not a diff fight over raw bench text.
//
// Repeated benchmarks (-count=N) are averaged; every metric column go
// test emits (ns/op, B/op, allocs/op, custom ReportMetric units like
// samples/sec) is kept under a JSON-friendly name. When the run contains
// the paired VQLExec/Scalar and VQLExec/Vectorized benchmarks the ratio
// of their ns/op means is recorded as derived.vql_exec_speedup — the
// within-run, same-binary number the ≥5× vectorization floor is judged
// on. The paired VQLRollup/Raw and VQLRollup/Tier benchmarks likewise
// record derived.rollup_speedup, the ≥10× tier-serving floor, and the
// paired GovernMixed/Unloaded and GovernMixed/Loaded benchmarks record
// derived.govern_cheap_p99_ms plus derived.govern_tail_ratio, the ≤5×
// cheap-query tail-latency bound governance must hold under load, and the
// paired WireQuery/Wire and WireQuery/HTTP benchmarks record
// derived.wire_overhead_ratio — the MySQL wire transport's per-round-trip
// cost relative to the HTTP JSON codec over the same warmed core.
//
// A trajectory file carries a series name (-series, default "vql") so
// different artifact files (BENCH_vql.json, BENCH_rollup.json) stay
// distinguishable; appending to a file whose series differs is an error.
//
// Usage:
//
//	go test -run XXX -bench 'VQLEndToEnd|VQLExec' -benchmem -count=3 . ./internal/vql |
//	    go run ./tools/benchjson -out BENCH_vql.json -label "my change"
//	go test -run XXX -bench VQLRollup -benchmem -count=3 . |
//	    go run ./tools/benchjson -series rollup -out BENCH_rollup.json -label "my change"
//	VAP_RECOVER_FIXTURE=1000x100000 go test -run XXX -bench BenchmarkRecover -benchtime 1x . |
//	    go run ./tools/benchjson -series recover -out BENCH_recover.json -label "my change"
//	go test -run XXX -bench GovernMixed -benchtime 1000x . |
//	    go run ./tools/benchjson -series govern -out BENCH_govern.json -label "my change"
//	go test -run XXX -bench WireQuery -count=3 ./internal/wire |
//	    go run ./tools/benchjson -series wire -out BENCH_wire.json -label "my change"
//	go test -run XXX -bench '^BenchmarkTSNE$|DistanceMatrixPearson' -count=10 . |
//	    go run ./tools/benchjson -series reduce -out BENCH_reduce.json -label "my change"
//	go test -run XXX -bench '^BenchmarkKDE$|KDEExact|FlowMap|ShiftGranularity' -cpu 2 -count=10 . |
//	    go run ./tools/benchjson -series shift -out BENCH_shift.json -label "my change"
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

type run struct {
	Date       string                        `json:"date"`
	Label      string                        `json:"label,omitempty"`
	Goos       string                        `json:"goos,omitempty"`
	Goarch     string                        `json:"goarch,omitempty"`
	CPU        string                        `json:"cpu,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	Derived    map[string]float64            `json:"derived,omitempty"`
}

type trajectory struct {
	Series string `json:"series"`
	Runs   []run  `json:"runs"`
}

// benchLine matches one result row: name, iteration count, then
// whitespace-separated (value, unit) metric pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// gomaxprocs strips the trailing -N go test appends when GOMAXPROCS > 1,
// so artifact entries from different machines share benchmark names.
var gomaxprocs = regexp.MustCompile(`-\d+$`)

func metricKey(unit string) string {
	return strings.NewReplacer("/", "_per_", "-", "_").Replace(unit)
}

func parse(r *bufio.Scanner) (run, error) {
	out := run{Benchmarks: map[string]map[string]float64{}}
	counts := map[string]map[string]int{}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := gomaxprocs.ReplaceAllString(strings.TrimPrefix(m[1], "Benchmark"), "")
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return out, fmt.Errorf("odd metric fields in %q", line)
		}
		if out.Benchmarks[name] == nil {
			out.Benchmarks[name] = map[string]float64{}
			counts[name] = map[string]int{}
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return out, fmt.Errorf("bad metric value in %q: %v", line, err)
			}
			k := metricKey(fields[i+1])
			out.Benchmarks[name][k] += v
			counts[name][k]++
		}
		out.Benchmarks[name]["runs"] = float64(counts[name]["ns_per_op"])
	}
	if err := r.Err(); err != nil {
		return out, err
	}
	for name, metrics := range out.Benchmarks {
		for k, n := range counts[name] {
			if n > 1 {
				metrics[k] /= float64(n)
			}
		}
	}
	if len(out.Benchmarks) == 0 {
		return out, fmt.Errorf("no benchmark lines on stdin")
	}
	sc, okS := out.Benchmarks["VQLExec/Scalar"]
	vec, okV := out.Benchmarks["VQLExec/Vectorized"]
	if okS && okV && vec["ns_per_op"] > 0 {
		out.Derived = map[string]float64{
			"vql_exec_speedup": round2(sc["ns_per_op"] / vec["ns_per_op"]),
		}
	}
	raw, okR := out.Benchmarks["VQLRollup/Raw"]
	tier, okT := out.Benchmarks["VQLRollup/Tier"]
	if okR && okT && tier["ns_per_op"] > 0 {
		if out.Derived == nil {
			out.Derived = map[string]float64{}
		}
		out.Derived["rollup_speedup"] = round2(raw["ns_per_op"] / tier["ns_per_op"])
	}
	wir, okW := out.Benchmarks["WireQuery/Wire"]
	htp, okH := out.Benchmarks["WireQuery/HTTP"]
	if okW && okH && htp["ns_per_op"] > 0 {
		if out.Derived == nil {
			out.Derived = map[string]float64{}
		}
		out.Derived["wire_overhead_ratio"] = round2(wir["ns_per_op"] / htp["ns_per_op"])
	}
	unl, okU := out.Benchmarks["GovernMixed/Unloaded"]
	lod, okL := out.Benchmarks["GovernMixed/Loaded"]
	if okU && okL && unl["p99_ms"] > 0 {
		if out.Derived == nil {
			out.Derived = map[string]float64{}
		}
		// Cheap-query p99 under two monster scans, and its ratio to the
		// unloaded p99 — the <= 5x ISSUE 9 governance acceptance bound.
		out.Derived["govern_cheap_p99_ms"] = round2(lod["p99_ms"])
		out.Derived["govern_tail_ratio"] = round2(lod["p99_ms"] / unl["p99_ms"])
	}
	return out, nil
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

func main() {
	outPath := flag.String("out", "", "trajectory file to append this run to (stdout if empty)")
	label := flag.String("label", "", "short description of this run")
	series := flag.String("series", "vql", "trajectory series name; must match an existing -out file's series")
	flag.Parse()

	entry, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	entry.Date = time.Now().UTC().Format("2006-01-02")
	entry.Label = *label

	traj := trajectory{Series: *series}
	if *outPath != "" {
		if raw, err := os.ReadFile(*outPath); err == nil {
			if err := json.Unmarshal(raw, &traj); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not a trajectory file: %v\n", *outPath, err)
				os.Exit(1)
			}
			// Appending a run under the wrong series would silently mislabel
			// the whole file's history; refuse instead.
			if traj.Series != *series {
				fmt.Fprintf(os.Stderr, "benchjson: %s holds series %q, refusing to append series %q\n", *outPath, traj.Series, *series)
				os.Exit(1)
			}
		}
	}
	traj.Runs = append(traj.Runs, entry)

	enc, err := json.MarshalIndent(&traj, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	note := ""
	if d := entry.Derived["vql_exec_speedup"]; d != 0 {
		note += fmt.Sprintf(" (vql_exec_speedup %.2fx)", d)
	}
	if d := entry.Derived["rollup_speedup"]; d != 0 {
		note += fmt.Sprintf(" (rollup_speedup %.2fx)", d)
	}
	if d := entry.Derived["govern_tail_ratio"]; d != 0 {
		note += fmt.Sprintf(" (govern_tail_ratio %.2fx)", d)
	}
	if d := entry.Derived["wire_overhead_ratio"]; d != 0 {
		note += fmt.Sprintf(" (wire_overhead_ratio %.2fx)", d)
	}
	fmt.Printf("recorded %d benchmarks to %s%s\n", len(entry.Benchmarks), *outPath, note)
}
