package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// manifestFile is the part of BENCHMARK.json the benchmark itself reads.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// series is one metric's values over the runs of a set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// resultSet is what -all writes and -compare reads: every workload's
// end-to-end metrics over -runs seeds, and one traced run's per-layer
// metrics.
type resultSet struct {
	Provenance provenance               `json:"provenance"`
	Seconds    float64                  `json:"seconds"`
	Runs       int                      `json:"runs"`
	Workloads  map[string]*workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// runAll runs every workload in a process of its own — so that peak RSS,
// allocation counts and collector state never leak from one into the next
// — runs times untraced with consecutive seeds and once traced.
func runAll(seed int64, seconds float64, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Provenance: newProvenance("all", seed, 0), Seconds: seconds, Runs: runs, Workloads: map[string]*workloadRuns{}}
	incorrect := 0
	for _, sp := range specs {
		wr := &workloadRuns{EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		set.Workloads[sp.name] = wr
		for i := 0; i <= runs; i++ {
			// The last iteration is the traced run, on the first seed.
			traced, s, into := 0, seed+int64(i), wr.EndToEnd
			if i == runs {
				traced, s, into = 1, seed, wr.PerLayer
			}
			res, err := runChild(self, sp.name, s, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", sp.name, s, traced, err)
			}
			fmt.Fprintf(os.Stderr, "bench: %s seed=%d trace=%d attempted=%d failed=%d\n", sp.name, s, traced, res.Attempted, res.Failed)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !res.Correct {
				incorrect++
			}
			for name, m := range res.Metrics {
				sr := into[name]
				sr.Unit, sr.Values = m.Unit, append(sr.Values, m.Value)
				into[name] = sr
			}
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if incorrect > 0 {
		return fmt.Errorf("%d runs returned wrong, stale or missing values", incorrect)
	}
	return nil
}

// runChild runs one workload in a child process and parses the result
// object it prints last.
func runChild(self, workload string, seed int64, seconds float64, traced int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced), "-info")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), so this tool and the acceptance check
// agree. Fewer than two values have no spread.
func spread(v []float64) float64 {
	m := len(v)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(m-1, j))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compareFiles prints, per workload and metric, both sets' medians, their
// ratio with its base, the bound, and a verdict: worse (b's median is
// worse than a's by more than the bound), unresolved (not worse, but one
// set's own spread is wider than the bound, so "unchanged" cannot be
// claimed), or ok. Per-layer metrics have no bound and get no verdict.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (worse bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	counts := map[string]int{}
	for _, wl := range man.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from a result set", wl.Name)
		}
		fmt.Fprintf(w, "%s  (a: %d runs, %d/%d failed; b: %d runs, %d/%d failed)\n", wl.Name,
			a.Runs, wa.Failed, wa.Attempted, b.Runs, wb.Failed, wb.Attempted)
		for _, mm := range man.EndToEnd {
			va, vb := wa.EndToEnd[mm.Name].Values, wb.EndToEnd[mm.Name].Values
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from a result set", wl.Name, mm.Name)
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma) // share of a's median by which b is higher
			if mm.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > mm.Bound || wb.Failed > wa.Failed:
				verdict, worse = "worse", true
			case spread(va) > mm.Bound || spread(vb) > mm.Bound:
				verdict = "unresolved"
			}
			counts[verdict]++
			fmt.Fprintf(w, "  %-30s a=%-12.6g b=%-12.6g b/a=%-8.4f bound=%-5.2f spread a=%.3f b=%.3f  %s (%s is better, %s)\n",
				mm.Name, ma, mb, ratio(mb, ma), mm.Bound, spread(va), spread(vb), verdict, mm.Better, mm.Unit)
		}
		for _, mm := range man.PerLayer {
			// The real-clock metrics come from every untraced run too (-info);
			// those full-window series are preferred to the traced run's one.
			va, vb := wa.EndToEnd[mm.Name].Values, wb.EndToEnd[mm.Name].Values
			if len(va) == 0 || len(vb) == 0 {
				va, vb = wa.PerLayer[mm.Name].Values, wb.PerLayer[mm.Name].Values
			}
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-30s a=%-12.6g b=%-12.6g b/a=%-8.4f spread a=%.3f b=%.3f  (%s is better, %s)\n",
				mm.Name, median(va), median(vb), ratio(median(vb), median(va)), spread(va), spread(vb), mm.Better, mm.Unit)
		}
	}
	fmt.Fprintf(w, "end-to-end verdicts: %d ok, %d unresolved, %d worse\n", counts["ok"], counts["unresolved"], counts["worse"])
	return worse, nil
}
