// Command cmbench regenerates the paper's evaluation figures (§7) against
// the simulated substrate and prints each as a text table.
//
// Usage:
//
//	cmbench                      # run every figure
//	cmbench -fig 11              # run one figure
//	cmbench -list                # list available figures
//	cmbench -json out.json       # also write machine-readable results
//	cmbench -reps 3              # repeat each figure, report medians
//
// Absolute values come from the calibrated simulation (see DESIGN.md); the
// comparisons — who wins, by what factor, where crossovers fall — are the
// reproduction targets recorded in EXPERIMENTS.md. The -json output holds
// per-figure medians across reps; cmd/benchdiff compares it against the
// one committed baseline, BENCH_PR10.json, to show a change left every
// modelled column where it was.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cliquemap/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "single figure to run (e.g. 11 or fig11)")
	list := flag.Bool("list", false, "list available figures")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	reps := flag.Int("reps", 1, "repetitions per figure; medians are reported")
	flag.Parse()

	if *list {
		for _, names := range experiments.Names() {
			fmt.Println(names)
		}
		return
	}
	if *reps < 1 {
		*reps = 1
	}

	var fns []func() experiments.Result
	if *fig != "" {
		f, ok := experiments.ByName(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "cmbench: unknown figure %q (try -list)\n", *fig)
			os.Exit(2)
		}
		fns = []func() experiments.Result{f}
	} else {
		fns = experiments.All()
	}

	var results []experiments.Result
	for _, f := range fns {
		results = append(results, runOne(f, *reps))
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "cmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// runOne executes a figure reps times, prints the median-merged result,
// and returns it.
func runOne(f func() experiments.Result, reps int) experiments.Result {
	start := time.Now()
	runs := make([]experiments.Result, reps)
	for i := range runs {
		runs[i] = f()
	}
	res := medianMerge(runs)
	fmt.Print(res.Format())
	fmt.Printf("  (%.1fs, %d rep(s))\n\n", time.Since(start).Seconds(), reps)
	return res
}

// medianMerge folds repeated runs of one figure into per-column medians.
// Rows and columns are matched positionally — every run of a figure
// produces the same shape.
func medianMerge(runs []experiments.Result) experiments.Result {
	res := runs[0]
	if len(runs) == 1 {
		return res
	}
	for ri := range res.Rows {
		for ci := range res.Rows[ri].Cols {
			vals := make([]float64, 0, len(runs))
			for _, r := range runs {
				if ri < len(r.Rows) && ci < len(r.Rows[ri].Cols) {
					vals = append(vals, r.Rows[ri].Cols[ci].Value)
				}
			}
			sort.Float64s(vals)
			res.Rows[ri].Cols[ci].Value = vals[len(vals)/2]
		}
	}
	return res
}

// benchFile is the machine-readable perf-trajectory schema. Keep fields
// additive: downstream re-anchors read historical seeds.
type benchFile struct {
	Schema     int                  `json:"schema"`
	Reps       int                  `json:"reps"`
	Benchmarks []experiments.Result `json:"benchmarks"`
}

func writeJSON(path string, results []experiments.Result, reps int) error {
	b, err := json.MarshalIndent(benchFile{Schema: 1, Reps: reps, Benchmarks: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
