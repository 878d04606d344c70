package slab_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/slab"
	"cliquemap/internal/workload"
)

// The layer probe slab.alloc_free of bench/probes.go as a benchmark beside
// the code it times. It reports, per call, the row BENCHMARK.json lists for
// it:
//
//	go test -run '^$' -bench Probe ./internal/slab/

// BenchmarkProbeAllocFree is slab.alloc_free: one Alloc and one Free of a
// get_small_scar entry (the workload's key, a 128-byte value) in a 16 MiB
// pool of 256 KiB slabs that already holds 256 such entries.
func BenchmarkProbeAllocFree(b *testing.B) {
	entrySize := layout.DataEntrySize(len(workload.Key(0)), 128)
	alloc, err := slab.New(16<<20, 256<<10, nil)
	if err != nil {
		b.Fatal(err)
	}
	for range 256 {
		if _, err := alloc.Alloc(entrySize); err != nil {
			b.Fatal(err)
		}
	}
	allocFree := func() {
		ref, err := alloc.Alloc(entrySize)
		if err != nil {
			b.Fatal(err)
		}
		if err := alloc.Free(ref, entrySize); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N/10+1; i++ { // bench/probes.go's warm-up: a tenth as many calls
		allocFree()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		allocFree()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "slab.alloc_free_ns")
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
	res := testing.Benchmark(BenchmarkProbeAllocFree)
	const name = "slab.alloc_free_ns"
	if _, ok := res.Extra[name]; res.N == 0 || !ok || len(res.Extra) != 1 || units[name] != "ns" {
		t.Errorf("%d calls reported %v, BENCHMARK.json unit %q; want the row %s in ns", res.N, res.Extra, units[name], name)
	}
}
