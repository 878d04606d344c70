package truetime_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"cliquemap/internal/truetime"
)

// The layer probe truetime.next of bench/probes.go as a benchmark beside the
// code it times. It reports, per call, the row BENCHMARK.json lists for it:
//
//	go test -run '^$' -bench Probe ./internal/truetime/

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// BenchmarkProbeNext is truetime.next: one generator's next version on the
// system clock.
func BenchmarkProbeNext(b *testing.B) {
	gen := truetime.NewGenerator(truetime.NewSystemClock(), 8)
	for i := 0; i < b.N/10+1; i++ { // bench/probes.go's warm-up: a tenth as many calls
		sink += gen.Next().Seq
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += gen.Next().Seq
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "truetime.next_ns")
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
	res := testing.Benchmark(BenchmarkProbeNext)
	const name = "truetime.next_ns"
	if _, ok := res.Extra[name]; res.N == 0 || !ok || len(res.Extra) != 1 || units[name] != "ns" {
		t.Errorf("%d calls reported %v, BENCHMARK.json unit %q; want the row %s in ns", res.N, res.Extra, units[name], name)
	}
}
