// Command bench is the repository's real-clock benchmark of the GET/SET
// datapath: four closed-loop workloads against an in-process cell through
// the public client API, every returned value verified, end-to-end metrics
// measured with tracing off and per-layer metrics from a separate traced
// run. BENCHMARK.json fixes the names, units, directions and bounds;
// README.md in this directory is the glossary.
//
//	bash bench/run.sh --workload get_small_scar --seed 1 --seconds 3 --trace 0
//	bash bench/run.sh -all -runs 10 -seconds 20 -o bench/out/a.json
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// setups is how many times a run builds, preloads and warms the cell;
// setup_s is their median and the window runs on the last.
const setups = 3

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// info holds what an untraced run measured besides the gated metrics:
	// the real clock. It is printed and filed, and joins Metrics only when
	// -info asks, because the driver wants exactly the manifest's names.
	info map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed for key order, value bytes and op mix")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		all      = flag.Bool("all", false, "run every workload, -runs times each with consecutive seeds, plus one traced run")
		runs     = flag.Int("runs", 1, "with -all: untraced runs per workload")
		out      = flag.String("o", "bench/out/results.json", "with -all: where the result set is written")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark's manifest, for -compare bounds")
		info     = flag.Bool("info", false, "with --trace 0: add the ungated real-clock metrics to the result object")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *all:
		err = runAll(*seed, *seconds, *runs, *out)
	default:
		err = runOne(*workload, *seed, *seconds, *traced, *info)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne is the driver's entry point: one workload, one seed, one mode.
func runOne(name string, seed int64, seconds float64, traced int, info bool) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	d := time.Duration(seconds * float64(time.Second))
	prov := newProvenance(sp.name, seed, traced)
	var res *result
	var cv float64
	if traced == 0 {
		res, cv, err = runEndToEnd(sp, seed, d)
	} else {
		res, cv, err = runTraced(sp, seed, d)
	}
	if err != nil {
		return err
	}
	prov.SliceCV = cv
	if cv > 0.10 {
		fmt.Fprintf(os.Stderr, "bench: warning: slice throughput varied by %.1f%% (CV) — the machine was probably shared; treat this run as noisy\n", cv*100)
	}
	if err := writeResultFile(prov, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench: result file:", err)
	}
	defs := endToEnd
	if traced != 0 {
		defs = perLayer
	}
	printTable(os.Stdout, sp, defs, res)
	if info {
		for name, m := range res.info {
			res.Metrics[name] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runEndToEnd measures one workload with tracing off: cell and client come
// from the public API, nothing is wrapped.
func runEndToEnd(sp spec, seed int64, d time.Duration) (*result, float64, error) {
	var (
		r      *rig
		g      *generator
		o      *oracle
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if r != nil {
			// Drop the previous cell before building the next, and restart
			// the kernel's high-water mark, so that peak_rss_mb is the peak
			// of one set-up and the window rather than of three cells.
			r.close()
			r, g, o = nil, nil, nil
			debug.FreeOSMemory()
			resetPeakRSS()
		}
		t0 := time.Now()
		var err error
		if r, err = newPublicRig(sp); err != nil {
			return nil, 0, err
		}
		if g, o, err = setUp(r, sp, seed); err != nil {
			return nil, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer r.close()

	before := snapshot(r, o)
	w := runWindow(r.kv, g, o, d)
	after := snapshot(r, o)

	ops := float64(w.ops)
	gets := float64(after.gets - before.gets)
	userBytes := float64(after.resident) / shards * float64(len(g.keys[0])+sp.valueSize)
	m := map[string]float64{
		"setup_s":                      median(setupS),
		"allocs_per_op":                float64(w.mallocs) / ops,
		"bytes_per_op":                 float64(w.allocBytes) / ops,
		"model_get_mean_us":            float64(after.modelGetNs-before.modelGetNs) / gets / 1e3,
		"model_cpu_us_per_op":          float64(after.modelCPUNs-before.modelCPUNs) / ops / 1e3,
		"get_hit_ratio":                float64(after.hits-before.hits) / gets,
		"resident_bytes_per_user_byte": float64(r.memoryBytes()) / userBytes,
		"peak_rss_mb":                  peakRSSMB(),
	}
	w.realClockMetrics(m)
	res := newResult(endToEnd, m, before, after, o)
	res.info = pick(realClock, m)
	return res, w.sliceCV(), nil
}

// newResult judges the ops issued between two snapshots and attaches the
// measured value of every definition.
func newResult(defs []metricDef, values map[string]float64, before, after counts, o *oracle) *result {
	res := &result{
		Attempted: after.attempted - before.attempted,
		Failed:    after.failed - before.failed,
		Metrics:   pick(defs, values),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed verification; first: %s\n", res.Failed, res.Attempted, o.firstFailure)
	}
	return res
}

// pick pairs every definition with its measured value; a name without a
// value is a bug in the benchmark, not a zero.
func pick(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was never measured")
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// counts is the cumulative state read before and after a window.
type counts struct {
	attempted, failed, gets, hits uint64
	modelGetNs, modelMutNs        uint64 // sums of the client's modelled-latency histograms
	modelMuts                     uint64
	modelCPUNs                    uint64
	resident                      int // entries held across all backends
}

func snapshot(r *rig, o *oracle) counts {
	c := counts{
		attempted: o.attempted, failed: o.failed, gets: o.gets, hits: o.hits,
		modelGetNs: r.cl.M.GetLatency.Sum(),
		modelMutNs: r.cl.M.SetLatency.Sum(),
		modelMuts:  r.cl.M.SetLatency.Count(),
		modelCPUNs: r.acct.GrandTotalNanos(),
	}
	for _, b := range r.backends {
		c.resident += b.Len()
	}
	return c
}

func printTable(f *os.File, sp spec, defs []metricDef, res *result) {
	fmt.Fprintf(f, "workload %s — %s\n", sp.name, sp.why)
	for _, d := range defs {
		fmt.Fprintf(f, "  %-34s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, d := range realClock {
		if m, ok := res.info[d.name]; ok {
			fmt.Fprintf(f, "  %-34s %16.6g %s (not gated)\n", d.name, m.Value, d.unit)
		}
	}
	fmt.Fprintf(f, "  attempted=%d failed=%d correct=%v GOMAXPROCS=%d\n", res.Attempted, res.Failed, res.Correct, runtime.GOMAXPROCS(0))
}
