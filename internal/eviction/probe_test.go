package eviction_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"cliquemap/internal/eviction"
	"cliquemap/internal/workload"
)

// The layer probes eviction.touch and eviction.add_evict of bench/probes.go
// as benchmarks beside the code they time. Each reports, per call, the row
// BENCHMARK.json lists for its probe:
//
//	go test -run '^$' -bench Probe ./internal/eviction/

// probePolicy is an LRU policy tracking the workload's first 4 096 keys,
// as bench/probes.go builds it, and those keys.
func probePolicy(b *testing.B) (eviction.Named, [][]byte) {
	pol, err := eviction.New("lru", 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(workload.Key(uint64(i)))
		pol.AddBytes(keys[i])
	}
	return pol, keys
}

// runProbe times fn over b.N calls after bench/probes.go's warm-up of a
// tenth as many, and reports the mean as the row name.
func runProbe(b *testing.B, name string, fn func(i int)) {
	for i := 0; i < b.N/10+1; i++ {
		fn(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), name)
}

// BenchmarkProbeTouch is eviction.touch: a recency touch of a tracked key,
// hashed from its bytes.
func BenchmarkProbeTouch(b *testing.B) {
	pol, keys := probePolicy(b)
	runProbe(b, "eviction.touch_ns", func(i int) { pol.TouchBytes(keys[i%len(keys)]) })
}

// BenchmarkProbeAddEvict is eviction.add_evict: pick the victim, remove it,
// and add it back as the newest key, so the population holds.
func BenchmarkProbeAddEvict(b *testing.B) {
	pol, _ := probePolicy(b)
	runProbe(b, "eviction.add_evict_ns", func(int) {
		victim, ok := pol.Victim()
		if !ok {
			b.Fatal("no victim")
		}
		pol.Remove(victim)
		pol.Add(victim)
	})
}

// TestProbeTwinsReportBenchRows runs each twin for a few calls and checks
// that it reports exactly the row BENCHMARK.json lists for its probe, with
// the unit it gives there.
func TestProbeTwinsReportBenchRows(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, row := range decl.PerLayer {
		units[row.Name] = row.Unit
	}
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	if err := benchtime.Set("20x"); err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(*testing.B){
		"eviction.touch_ns":     BenchmarkProbeTouch,
		"eviction.add_evict_ns": BenchmarkProbeAddEvict,
	} {
		res := testing.Benchmark(fn)
		if _, ok := res.Extra[name]; res.N == 0 || !ok || len(res.Extra) != 1 || units[name] != "ns" {
			t.Errorf("%d calls reported %v, BENCHMARK.json unit %q; want the row %s in ns", res.N, res.Extra, units[name], name)
		}
	}
}
