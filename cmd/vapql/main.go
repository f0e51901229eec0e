// Command vapql is an interactive VQL shell over a VAP store: it loads
// (or generates) a smart-meter dataset and reads statements from stdin,
// printing result tables, EXPLAIN trees, and parse errors with source
// positions.
//
// Usage:
//
//	vapql [-dir data/] [-seed 42] [-days 90] [-e "SELECT ..."]
//
// With -dir the store is opened durably (and a synthetic dataset is
// generated into it when empty); without it an in-memory dataset is
// generated. -e executes one statement and exits, for scripting:
//
//	vapql -e "SELECT zone, sum(value) FROM meters GROUP BY zone"
//
// Statements may span lines and run when a line ends with ';'
// (psql-style); EOF flushes a pending statement, so piped input needs no
// trailing ';'. Meta commands: .help, .stats, .exit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"vap/internal/core"
	"vap/internal/gen"
	"vap/internal/store"
)

func main() {
	dir := flag.String("dir", "", "durability directory (empty = in-memory synthetic data)")
	seed := flag.Int64("seed", 42, "synthetic data seed")
	days := flag.Int("days", 90, "days of synthetic data when generating")
	workers := flag.Int("workers", 0, "parallel fan-out (0 = GOMAXPROCS)")
	oneShot := flag.String("e", "", "execute one statement and exit")
	flag.Parse()

	st, err := store.OpenSeeded(store.Options{Dir: *dir}, func(st *store.Store) error {
		fmt.Fprintf(os.Stderr, "generating synthetic dataset (seed=%d days=%d)...\n", *seed, *days)
		return gen.Generate(gen.Config{Seed: *seed, Days: *days}).LoadInto(st)
	})
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer st.Close()
	an := core.NewAnalyzerOpts(st, core.Options{Workers: *workers})

	if *oneShot != "" {
		if !runStatement(an, *oneShot) {
			os.Exit(1)
		}
		return
	}

	stats := st.Stats()
	fmt.Printf("vapql — VQL shell over %d meters, %d samples. Type .help for help.\n", stats.Meters, stats.Samples)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "vql> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			// EOF flushes a pending statement (so piped input does not need
			// a trailing ';').
			if stmt := strings.TrimSpace(buf.String()); stmt != "" {
				runStatement(an, stmt)
			}
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 {
			switch {
			case trimmed == "":
				continue
			case strings.HasPrefix(trimmed, "."), trimmed == `\q`:
				if !runMeta(an, trimmed) {
					return
				}
				continue
			}
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		// Statements run on ';', psql-style; anything else accumulates.
		if stmt := strings.TrimSpace(buf.String()); strings.HasSuffix(stmt, ";") {
			runStatement(an, stmt)
			buf.Reset()
			prompt = "vql> "
		} else {
			prompt = " ...> "
		}
	}
}

// runMeta handles dot commands; returns false to exit the shell.
func runMeta(an *core.Analyzer, cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case ".exit", ".quit", `\q`:
		return false
	case ".stats":
		st := an.Store().Stats()
		es := an.ExecStats()
		fmt.Printf("meters=%d samples=%d compressed=%dB shards=%d cache{hits=%d misses=%d entries=%d}\n",
			st.Meters, st.Samples, st.CompressedBytes, st.Shards, es.Hits, es.Misses, an.Exec().Len())
	case ".help":
		fmt.Print(`VQL:
  SELECT <agg|key>[, ...] FROM meters
    [WHERE bbox(minLon,minLat,maxLon,maxLat) AND zone = '<zone>'
       AND meter IN (ids) AND time >= '<t>' AND time < '<t>']
    [GROUP BY bucket(<granularity>) | meter | zone]
    [ORDER BY <col|ordinal> [ASC|DESC], ...] [LIMIT n]
  aggregates: sum(value) mean(value) min(value) max(value) count(*)
  granularities: hourly 4hourly daily weekly monthly quarterly yearly
  Prefix with EXPLAIN to see the plan without executing.
Meta: .stats .help .exit
`)
	default:
		fmt.Printf("unknown command %q (try .help)\n", cmd)
	}
	return true
}

// runStatement executes one statement and prints the result; returns
// false on error.
func runStatement(an *core.Analyzer, src string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	start := time.Now()
	out, err := an.VQL(ctx, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return false
	}
	elapsed := time.Since(start)
	if out.Explain {
		fmt.Print(out.Plan)
		return true
	}
	printTable(out.Columns, out.Rows)
	fmt.Printf("(%d rows, %d meters, %d samples, %v)\n", len(out.Rows), out.Meters, out.Samples, elapsed.Round(time.Microsecond))
	return true
}

// printTable renders rows with per-column widths.
func printTable(cols []string, rows [][]any) {
	widths := make([]int, len(cols))
	cells := make([][]string, len(rows))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for r, row := range rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := formatCell(v)
			cells[r][c] = s
			if c < len(widths) && len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, c := range cols {
		fmt.Printf("%-*s  ", widths[i], c)
	}
	fmt.Println()
	for i := range cols {
		fmt.Printf("%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Println()
	for _, row := range cells {
		for c, s := range row {
			fmt.Printf("%-*s  ", widths[c], s)
		}
		fmt.Println()
	}
}

func formatCell(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		return fmt.Sprintf("%.6g", x)
	case int64:
		return fmt.Sprintf("%d", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}
