// Command bench is the repository's process-level benchmark: it starts a
// real vapd, drives it over HTTP and the MySQL wire from one load
// generator, checks the answers against an independent oracle and prints
// every metric of BENCHMARK.json by name. See README.md.
//
//	bash bench/run.sh --seed 1                          all workloads, tables + bench/out/run.json
//	bash bench/run.sh --workload dash --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --seed 1 --trace 1                in-process ladders, bench/out/trace-*.json
//	bash bench/run.sh --compare a.json b.json
//
// run.sh builds vapd and this program and passes -vapd and -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// lastLine is the contract's result object: the last line of stdout when
// one workload is run.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lastValue `json:"metrics"`
}

type lastValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFile is bench/out/run.json: what -compare reads.
type runFile struct {
	Seed    int64     `json:"seed"`
	Trace   bool      `json:"trace"`
	Results []*result `json:"results"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (dash, scan, mixed, explore) and end with the result line; empty runs all four")
		seed     = flag.Int64("seed", 1, "workload seed: the dataset vapd generates and every generated input")
		seconds  = flag.Float64("seconds", 30, "measured seconds per workload, cut into ten windows")
		trace    = flag.Int("trace", 0, "1 = traced run: in-process ladders and per-layer metrics; 0 = end-to-end metrics")
		vapdBin  = flag.String("vapd", "", "path of the vapd binary (run.sh builds it)")
		outDir   = flag.String("out", "bench/out", "directory for logs, span files, run.json and vapd's data directories")
		smoke    = flag.Bool("smoke", false, "short run for CI: 1 s windows, 4 explore sessions, one cold start")
		compare  = flag.Bool("compare", false, "compare two run.json files given as arguments; exit 1 on a regression past a bound")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two run.json files"))
		}
		os.Exit(compareRuns(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *vapdBin == "" {
		fatal(fmt.Errorf("-vapd is required: start the benchmark with bench/run.sh, which builds vapd"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	o := driveOpts{vapdBin: *vapdBin, outDir: *outDir, seed: *seed, seconds: *seconds, starts: 3, full: true}
	if *smoke {
		o.seconds, o.starts, o.sessions = 10, 1, 4
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}

	w := newWorld(*seed)
	if *trace == 1 {
		// The traced run needs the process only as the top rung of the
		// ladders: one start, half the time, no crash test.
		o.starts, o.full, o.seconds = 1, false, o.seconds/2
		if o.sessions > 0 {
			o.sessions = 2
		}
	}
	var st *stack
	file := runFile{Seed: *seed, Trace: *trace == 1}
	ok := true
	for _, name := range names {
		r, err := runWorkload(name, o, w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if *trace == 1 {
			// Built after the first drive, so that loading a second copy
			// of the dataset does not compete with the process under test.
			if st == nil {
				if st, err = newStack(w, *outDir); err != nil {
					fatal(err)
				}
				defer st.close()
			}
			if err := st.trace(name, r); err != nil {
				st.close()
				fatal(fmt.Errorf("%s: trace: %w", name, err))
			}
		}
		file.Results = append(file.Results, r)
		printResult(r, *trace == 1)
		if err := writeJSON(filepath.Join(*outDir, name+".json"), r); err != nil {
			fatal(err)
		}
		ok = ok && r.Failed == 0
	}
	if *workload == "" {
		if err := writeJSON(filepath.Join(*outDir, "run.json"), &file); err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Println("FAILED: failed_share > 0 (see errors above)")
			os.Exit(1)
		}
		return
	}
	// Contract mode: the last line carries every end-to-end metric
	// (untraced) or every per-layer metric (traced), and nothing else.
	r := file.Results[0]
	defs, from := endToEnd, r.Metrics
	if *trace == 1 {
		defs, from = perLayer, r.Layers
	}
	line := lastLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lastValue{}}
	for _, d := range defs {
		m, found := from[d.Name]
		if !found || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name))
		}
		line.Metrics[d.Name] = lastValue{m.Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(sanitize(v), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sanitize drops unmeasured optional metrics (a p99 whose windows hold
// fewer than 1000 samples is NaN) from the result maps: encoding/json
// rejects NaN.
func sanitize(v any) any {
	drop := func(m map[string]metric) {
		for k, x := range m {
			if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
				delete(m, k)
			}
		}
	}
	switch x := v.(type) {
	case *result:
		drop(x.Metrics)
		drop(x.Layers)
	case *runFile:
		for _, r := range x.Results {
			drop(r.Metrics)
			drop(r.Layers)
		}
	}
	return v
}

// printResult prints one workload's numbers by name, with unit, sample
// count and window spread.
func printResult(r *result, traced bool) {
	fmt.Printf("\n== %s  seed=%d  workload_hash=%s  attempted=%d failed=%d failed_share=%.6f\n",
		r.Workload, r.Seed, r.Hash, r.Attempted, r.Failed, float64(r.Failed)/math.Max(1, float64(r.Attempted)))
	for _, e := range r.Errors {
		fmt.Println("   error:", e)
	}
	show := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Println(" ", title)
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			x := m[k]
			if math.IsNaN(x.Value) {
				continue
			}
			spread := ""
			if x.Min != x.Max {
				spread = fmt.Sprintf(" [%.4g..%.4g]", x.Min, x.Max)
			}
			note := ""
			if x.Note != "" {
				note = "  # " + x.Note
			}
			raw := ""
			if x.Raw != 0 {
				raw = fmt.Sprintf(" (raw %.4g)", x.Raw)
			}
			fmt.Printf("    %-32s %12.4f %-6s n=%-7d%s%s%s\n", k, x.Value, x.Unit, x.N, spread, raw, note)
		}
	}
	if !traced {
		show("end to end", r.Metrics)
	}
	show("layers", r.Layers)
	if r.Workload == "mixed" && !traced {
		fmt.Println("    (SIGKILL keeps the OS page cache: recover_s and the durability check prove process-crash durability only)")
	}
}
