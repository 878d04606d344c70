package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// outDir is where a run leaves its artefacts (result files, the span
// trace), relative to the checkout root the benchmark is run from.
var outDir = "bench/out"

// provenance is recorded beside every result so a noisy or mismatched run
// is recognisable after the fact.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg    string  `json:"loadavg_at_start"`
	SliceCV    float64 `json:"slice_cv"`
}

func newProvenance(workload string, seed int64, traced int) provenance {
	p := provenance{
		Workload: workload, Seed: seed, Trace: traced,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	// The driver's checkout is not a git repository, so the commit is known
	// only when the toolchain stamped it into the binary.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		p.LoadAvg = strings.TrimSpace(string(b))
	}
	return p
}

// resultFile is what one run leaves in bench/out.
type resultFile struct {
	Provenance provenance        `json:"provenance"`
	Result     *result           `json:"result"`
	NotGated   map[string]metric `json:"not_gated,omitempty"`
}

func writeResultFile(p provenance, res *result) error {
	b, err := json.MarshalIndent(resultFile{p, res, res.info}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s.trace%d.json", p.Workload, p.Trace)
	return os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
}
