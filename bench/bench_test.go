package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cliquemap/internal/truetime"
)

// small shrinks a workload to test size: same cell shape, transport, op
// mix and value size, a thousand keys.
func small(sp spec) spec {
	sp.keys = 1000
	if sp.valueSize > 4096 {
		sp.keys = 200
	}
	sp.preload = min(sp.preload, sp.keys)
	sp.values = min(sp.values, sp.keys)
	sp.warmOps = 300
	sp.buckets = 1024
	sp.dataBytes = 8 << 20
	if !sp.resident {
		sp.preload = sp.keys / 2
	}
	return sp
}

func TestPercentilePicker(t *testing.T) {
	s := make([]uint32, 1000)
	for i := range s {
		s[i] = uint32(i+1) * 1000 // 1µs … 1000µs, sorted
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 99.9: 999, 100: 1000} {
		if got := percentileUs(s, p); got != want {
			t.Errorf("p%v of 1..1000µs = %v, want %v", p, got, want)
		}
	}
	if got := percentileUs(nil, 50); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
	// The deepest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{20: 50, 100: 90, 1000: 99, 10_000: 99.9, 2_000_000: 99.999} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
		if beyond := n - 1 - rank(n, tailPercentile(n)); beyond < 10 && n >= 21 {
			t.Errorf("tailPercentile(%d) leaves %d samples beyond", n, beyond)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		sp = small(sp)
		a, b, c := streamHash(sp, 7, 5000), streamHash(sp, 7, 5000), streamHash(sp, 8, 5000)
		if a != b {
			t.Errorf("%s: same seed gave different op streams", sp.name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same op stream", sp.name)
		}
	}
}

// TestSpansConserveTime drives the decorated seam rig and checks the span
// tree the recorder kept: one root per op, every child inside its parent,
// children summing to no more than the parent (self time ≥ 0).
func TestSpansConserveTime(t *testing.T) {
	for _, name := range []string{"get_small_scar", "mix_rw_1rma"} {
		sp, _ := specByName(name)
		sp = small(sp)
		rec := newRecorder()
		r, err := newSeamRig(sp, rec)
		if err != nil {
			t.Fatal(err)
		}
		g, o, err := setUp(r, sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		rec.on = true
		kv := tracedKV{cl: r.cl, rec: rec}
		const ops = 2000
		for i := 0; i < ops; i++ {
			step(context.Background(), kv, g, o, g.next())
		}
		rec.on = false
		r.close()
		if o.failed > 0 {
			t.Fatalf("%s: %s", name, o.firstFailure)
		}

		roots := map[uint32]int{}
		children := make(map[int32]int64)
		for i, s := range rec.spans {
			if s.end < s.start {
				t.Fatalf("%s: span %d ends before it starts", name, i)
			}
			if s.parent < 0 {
				if s.name != spanOp {
					t.Fatalf("%s: root span %d is a %s", name, i, spanNames[s.name])
				}
				roots[s.op]++
				continue
			}
			p := rec.spans[s.parent]
			if p.op != s.op || p.parent != -1 {
				t.Fatalf("%s: span %d's parent is not its op's root", name, i)
			}
			if s.start < p.start || s.end > p.end {
				t.Fatalf("%s: span %d [%d,%d] leaves its parent [%d,%d]", name, i, s.start, s.end, p.start, p.end)
			}
			children[s.parent] += s.end - s.start
		}
		if len(roots) != ops {
			t.Errorf("%s: %d ops have a root span, want %d", name, len(roots), ops)
		}
		for op, n := range roots {
			if n != 1 {
				t.Errorf("%s: op %d has %d roots", name, op, n)
			}
		}
		for parent, sum := range children {
			if p := rec.spans[parent]; sum > p.end-p.start {
				t.Errorf("%s: op %d's children sum to %dns, more than its %dns", name, p.op, sum, p.end-p.start)
			}
		}
		if len(children) == 0 {
			t.Errorf("%s: no leg spans recorded", name)
		}
		// The running sums cover the same ops as the kept spans here.
		covered := rec.sums[0].ops + rec.sums[1].ops
		for _, s := range rec.sums {
			for _, l := range s.legs {
				covered += l.calls
			}
		}
		if covered != uint64(len(rec.spans)) {
			t.Errorf("%s: sums cover %d spans, kept %d", name, covered, len(rec.spans))
		}
	}
}

// TestSeamRigMatchesPublic holds the hand-assembled traced cell to the
// public one: the same seeded ops must leave the same observable state.
func TestSeamRigMatchesPublic(t *testing.T) {
	t.Parallel()
	for _, sp := range specs {
		sp = small(sp)
		type outcome struct {
			hits, gets, failed uint64
			applied            uint64
			evictions          uint64
			resident           int
		}
		run := func(r *rig, err error) outcome {
			if err != nil {
				t.Fatal(err)
			}
			defer r.close()
			g, o, err := setUp(r, sp, 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1500; i++ {
				step(context.Background(), r.kv, g, o, g.next())
			}
			out := outcome{hits: o.hits, gets: o.gets, failed: o.failed}
			for _, b := range r.backends {
				c := b.CountersSnapshot()
				out.applied += c.SetsApplied
				out.evictions += c.CapacityEvictions + c.AssocEvictions
				out.resident += b.Len()
			}
			return out
		}
		pub := run(newPublicRig(sp))
		seam := run(newSeamRig(sp, newRecorder()))
		if pub != seam {
			t.Errorf("%s: public rig %+v, seam rig %+v", sp.name, pub, seam)
		}
		if pub.failed != 0 {
			t.Errorf("%s: %d ops failed verification", sp.name, pub.failed)
		}
	}
}

// TestOracleCatchesWrongValues feeds the oracle each kind of bad answer.
func TestOracleCatchesWrongValues(t *testing.T) {
	resident, _ := specByName("rpc_tcp_remote")
	evicting, _ := specByName("mix_rw_1rma")
	for _, tc := range []struct {
		name string
		sp   spec
		do   func(o *oracle)
		bad  bool
	}{
		{"last acked value", resident, func(o *oracle) { o.checkGet(3, o.vals[1], true, nil) }, false},
		{"stale value", resident, func(o *oracle) { o.checkGet(3, o.vals[0], true, nil) }, true},
		{"foreign value", resident, func(o *oracle) { o.checkGet(3, []byte("x"), true, nil) }, true},
		{"miss on a resident key", resident, func(o *oracle) { o.checkGet(3, nil, false, nil) }, true},
		{"miss where eviction runs", evicting, func(o *oracle) { o.checkGet(3, nil, false, nil) }, false},
		{"hit after erase", evicting, func(o *oracle) { o.ackErase(3, nil); o.checkGet(3, o.vals[1], true, nil) }, true},
		{"miss after erase", resident, func(o *oracle) { o.ackErase(3, nil); o.checkGet(3, nil, false, nil) }, false},
		{"never written", resident, func(o *oracle) { o.checkGet(4, o.vals[0], true, nil) }, true},
		{"error", evicting, func(o *oracle) { o.checkGet(3, nil, false, context.Canceled) }, true},
		{"cas applied", evicting, func(o *oracle) { o.ackCas(3, 2, true, nil); o.checkGet(3, o.vals[2], true, nil) }, false},
		{"cas refused keeps the old value", evicting, func(o *oracle) { o.ackCas(3, 2, false, nil); o.checkGet(3, o.vals[2], true, nil) }, true},
	} {
		o := newOracle(newGenerator(small(tc.sp), 1))
		o.ackSet(3, 0, truetime.Version{Micros: 1}, nil)
		o.ackSet(3, 1, truetime.Version{Micros: 2}, nil)
		tc.do(o)
		if (o.failed > 0) != tc.bad {
			t.Errorf("%s: failed=%d (%s), want bad=%v", tc.name, o.failed, o.firstFailure, tc.bad)
		}
	}
}

// manifestPath is BENCHMARK.json as seen from this package's directory.
const manifestPath = "../BENCHMARK.json"

func TestManifestMatchesTables(t *testing.T) {
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest has %s (%s), the benchmark emits %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: %s has no direction", kind, got[i].Name)
			}
			if bounded && (got[i].Bound <= 0 || got[i].Bound > 0.25) {
				t.Errorf("%s: %s has bound %v outside (0, 0.25]", kind, got[i].Name, got[i].Bound)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(man.Workloads) != len(specs) {
		t.Fatalf("manifest lists %d workloads, the benchmark has %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q / %q, benchmark %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmokeEmitsExactlyTheManifest runs every workload, shrunk, through
// both modes for a fraction of a second and checks that exactly the
// manifest's metric names come out, each with its unit, all values finite,
// every op verified.
func TestSmokeEmitsExactlyTheManifest(t *testing.T) {
	t.Parallel()
	man, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	outDir = t.TempDir()
	probeScale = 0.01
	defer func() { outDir, probeScale = "bench/out", 1 }()
	for _, sp := range specs {
		sp = small(sp)
		for mode, want := range [][]manifestMetric{man.EndToEnd, man.PerLayer} {
			run := runEndToEnd
			if mode == 1 {
				run = runTraced
			}
			res, _, err := run(sp, 2, 200*time.Millisecond)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sp.name, mode, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", sp.name, mode, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics emitted, manifest lists %d", sp.name, mode, len(res.Metrics), len(want))
			}
			for _, mm := range want {
				got, ok := res.Metrics[mm.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s not emitted", sp.name, mode, mm.Name)
				case got.Unit != mm.Unit || got.Unit == "":
					t.Errorf("%s trace=%d: %s has unit %q, manifest says %q", sp.name, mode, mm.Name, got.Unit, mm.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", sp.name, mode, mm.Name, got.Value)
				case mode == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, mm.Name, got.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, sp.name+".trace.json")); err != nil {
			t.Errorf("%s: no trace artefact: %v", sp.name, err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	man := write("manifest.json", map[string]any{
		"workloads": []map[string]string{{"name": "w", "why": "test"}},
		"end_to_end": []map[string]any{
			{"name": "lat", "unit": "us", "better": "lower", "bound": 0.10},
			{"name": "rate", "unit": "ops/s", "better": "higher", "bound": 0.10},
			{"name": "noisy", "unit": "us", "better": "lower", "bound": 0.10},
		},
		"per_layer": []map[string]any{{"name": "layer.x", "unit": "ns", "better": "lower"}},
	})
	set := func(lat, rate float64) *resultSet {
		return &resultSet{Runs: 4, Workloads: map[string]*workloadRuns{"w": {
			Attempted: 100,
			EndToEnd: map[string]series{
				"lat":   {"us", []float64{lat, lat * 1.01, lat * 0.99, lat}},
				"rate":  {"ops/s", []float64{rate, rate, rate * 1.02, rate * 0.98}},
				"noisy": {"us", []float64{10, 14, 7, 12}},
			},
			PerLayer: map[string]series{"layer.x": {"ns", []float64{5}}},
		}}}
	}
	base := write("a.json", set(100, 1000))
	for _, tc := range []struct {
		name      string
		lat, rate float64
		worse     bool
		want      []string
	}{
		{"same", 100, 1000, false, []string{"lat ", "ok", "unresolved"}},
		{"slower", 115, 1000, true, []string{"worse"}},
		{"less throughput", 100, 850, true, []string{"worse"}},
		{"faster", 80, 1200, false, []string{"ok"}},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, man, base, write("b.json", set(tc.lat, tc.rate)))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse {
			t.Errorf("%s: worse=%v, want %v\n%s", tc.name, worse, tc.worse, out.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q\n%s", tc.name, w, out.String())
			}
		}
	}
}
