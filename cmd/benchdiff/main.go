// Command benchdiff compares two cmbench -json files — in practice the
// one committed figure-parity baseline, BENCH_PR10.json, against a fresh
// run — and reports per-figure median deltas against a regression gate.
//
// Columns are matched by (figure name, row label, column name); rows
// present in only one file are listed but not gated. Delta direction is
// inferred from the unit: latency and footprint units (ns, us, B,
// cpu-s/s) regress when they grow, capacity and rate units (qps, ops/s,
// B/s) regress when they shrink, and dimensionless columns (ratios, "x")
// are reported but never gated — a crossover factor moving is a finding,
// not a perf regression.
//
// Columns tagged noisy (wall-clock-denominated rates, load-wall knees)
// are reported with a "~" mark when they move past the gate but never
// count as violations; categorical text columns (e.g. the loadwall
// limiting resource) are diffed as text, also informationally.
//
// Usage:
//
//	benchdiff OLD.json NEW.json            # full report, 5% gate
//	benchdiff -gate 3 OLD.json NEW.json    # tighter gate
//	benchdiff -only fig20,tier OLD NEW     # gate only these figures
//	benchdiff -q OLD.json NEW.json         # violations only
//
// Exits 1 if any gated column regresses past the gate, 0 otherwise — so
// CI and the PR workflow can use it directly: `cmbench -json now.json
// -reps 3`, then `benchdiff BENCH_PR10.json now.json`. Per-PR performance
// is judged by BENCHMARK.json + bench/, not by a trajectory of these files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"cliquemap/internal/experiments"
)

type benchFile struct {
	Schema     int                  `json:"schema"`
	Reps       int                  `json:"reps"`
	Benchmarks []experiments.Result `json:"benchmarks"`
}

func load(path string) benchFile {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		fatal("%s: %v", path, err)
	}
	return f
}

// direction returns +1 when growth is a regression (latency, footprint),
// -1 when shrinkage is (rates), and 0 for ungated dimensionless columns.
func direction(unit string) int {
	switch unit {
	case "ns", "us", "B", "cpu-s/s":
		return 1
	case "qps", "ops/s", "B/s":
		return -1
	}
	return 0
}

func main() {
	gate := flag.Float64("gate", 5, "regression gate in percent")
	only := flag.String("only", "", "comma-separated figure names to gate (default: all)")
	quiet := flag.Bool("q", false, "print only gate violations")
	flag.Parse()
	if flag.NArg() != 2 {
		fatal("usage: benchdiff [-gate pct] [-only figs] OLD.json NEW.json")
	}
	oldF, newF := load(flag.Arg(0)), load(flag.Arg(1))

	gated := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			gated[name] = true
		}
	}

	oldByName := map[string]experiments.Result{}
	for _, b := range oldF.Benchmarks {
		oldByName[b.Name] = b
	}

	violations := 0
	for _, nb := range newF.Benchmarks {
		ob, ok := oldByName[nb.Name]
		if !ok {
			if !*quiet {
				fmt.Printf("== %s: new figure, nothing to diff\n", nb.Name)
			}
			continue
		}
		delete(oldByName, nb.Name)
		inGate := len(gated) == 0 || gated[nb.Name]
		if !*quiet {
			fmt.Printf("== %s\n", nb.Name)
		}
		oldRows := map[string][]experiments.Col{}
		for _, r := range ob.Rows {
			oldRows[r.Label] = r.Cols
		}
		for _, r := range nb.Rows {
			oCols, ok := oldRows[r.Label]
			if !ok {
				if !*quiet {
					fmt.Printf("   %-18s (new row)\n", r.Label)
				}
				continue
			}
			oldByCol := map[string]experiments.Col{}
			for _, c := range oCols {
				oldByCol[c.Name] = c
			}
			for _, c := range r.Cols {
				oc, ok := oldByCol[c.Name]
				if !ok {
					continue
				}
				if c.Text != "" || oc.Text != "" {
					// Categorical column: a change is a finding, not a
					// regression; surface it informationally.
					if !*quiet && oc.Text != c.Text {
						fmt.Printf(" ~ %-18s %-12s %14s -> %-14s\n", r.Label, c.Name, oc.Text, c.Text)
					}
					continue
				}
				if oc.Value == 0 {
					continue
				}
				pct := (c.Value - oc.Value) / math.Abs(oc.Value) * 100
				dir := direction(c.Unit)
				noisy := c.Noisy || oc.Noisy
				regressed := inGate && !noisy && dir != 0 && pct*float64(dir) > *gate
				if regressed {
					violations++
				}
				if !*quiet || regressed {
					mark := " "
					switch {
					case regressed:
						mark = "!"
					case noisy && dir != 0 && math.Abs(pct) > *gate:
						mark = "~" // noisy column moved; informational
					case dir != 0 && -pct*float64(dir) > *gate:
						mark = "+" // improved past the gate
					}
					fmt.Printf(" %s %-18s %-12s %14.4g -> %-14.4g %+7.2f%% %s\n",
						mark, r.Label, c.Name, oc.Value, c.Value, pct, c.Unit)
				}
			}
		}
	}
	for name := range oldByName {
		if !*quiet {
			fmt.Printf("== %s: dropped from new file\n", name)
		}
	}
	if violations > 0 {
		fmt.Printf("benchdiff: %d column(s) regressed past the %.3g%% gate\n", violations, *gate)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Printf("benchdiff: all gated columns within %.3g%%\n", *gate)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
