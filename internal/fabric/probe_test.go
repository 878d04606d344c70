package fabric_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/workload"
)

// The layer probe fabric.deliver of bench/probes.go as a benchmark beside
// the code it times. It reports, per call, the row BENCHMARK.json lists for
// it:
//
//	go test -run '^$' -bench Probe ./internal/fabric/

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// BenchmarkProbeDeliver is fabric.deliver: billing one get_small_scar
// DataEntry (the workload's key, a 128-byte value) arriving at a host of a
// two-host fabric with default parameters, on the wall clock.
func BenchmarkProbeDeliver(b *testing.B) {
	entrySize := layout.DataEntrySize(len(workload.Key(0)), 128)
	host := fabric.New(2, fabric.Params{}).Host(0)
	for i := 0; i < b.N/10+1; i++ { // bench/probes.go's warm-up: a tenth as many calls
		sink += host.Deliver(entrySize)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += host.Deliver(entrySize)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "fabric.deliver_ns")
}

// TestProbeTwinsReportBenchRows runs the twin for a few calls and checks
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
	res := testing.Benchmark(BenchmarkProbeDeliver)
	const name = "fabric.deliver_ns"
	if _, ok := res.Extra[name]; res.N == 0 || !ok || len(res.Extra) != 1 || units[name] != "ns" {
		t.Errorf("%d calls reported %v, BENCHMARK.json unit %q; want the row %s in ns", res.N, res.Extra, units[name], name)
	}
}
