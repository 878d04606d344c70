package rmem_test

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// The layer probes of bench/probes.go that time this package — rmem.read,
// rmem.view and rmem.write_chunked — as benchmarks beside the code they
// measure. Each reports, per call, the rows BENCHMARK.json lists for its
// probe:
//
//	go test -run '^$' -bench Probe ./internal/rmem/

// probeFixture is one backend's data region shaped like the get_small_scar
// workload's: 100 000 DataEntries of 128-byte values under the workload's
// keys, back to back.
type probeFixture struct {
	data      *rmem.Region
	entry     []byte // the workload's first key and value, encoded
	entrySize int
}

const probeEntries = 100_000

var probeMemory = sync.OnceValue(func() *probeFixture {
	const valueSize = 128
	ver := truetime.Version{Micros: 1, ClientID: 7, Seq: 1}
	f := &probeFixture{entrySize: layout.DataEntrySize(len(workload.Key(0)), valueSize)}
	f.data = rmem.NewRegion(probeEntries*f.entrySize, probeEntries*f.entrySize)
	f.entry = make([]byte, f.entrySize)
	for i := range probeEntries {
		layout.EncodeDataEntry(f.entry, []byte(workload.Key(uint64(i))), workload.ValueGen(uint64(i), valueSize), ver)
		if err := f.data.Write(i*f.entrySize, f.entry); err != nil {
			panic(err)
		}
	}
	layout.EncodeDataEntry(f.entry, []byte(workload.Key(0)), workload.ValueGen(0, valueSize), ver)
	return f
})

// off scatters call i over the fixture's entries, as the probes do.
func (f *probeFixture) off(i int) int {
	return int(uint32(i)*2654435761%uint32(probeEntries)) * f.entrySize
}

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// probeLoop times fn as bench/probes.go's probe does — a tenth as many
// warm-up calls, then b.N timed ones — and reports prefix_ns per call,
// and prefix_bytes too when bytes is set.
func probeLoop(b *testing.B, prefix string, bytes bool, fn func(i int)) {
	for i := 0; i < b.N/10+1; i++ {
		fn(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, prefix+"_ns")
	if bytes {
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, prefix+"_bytes")
	}
}

// BenchmarkProbeRead is rmem.read: copying one DataEntry out into a fresh
// slice.
func BenchmarkProbeRead(b *testing.B) {
	f := probeMemory()
	probeLoop(b, "rmem.read", true, func(i int) {
		raw, err := f.data.Read(f.off(i), f.entrySize)
		if err != nil {
			b.Fatal(err)
		}
		sink += uint64(raw[0])
	})
}

// BenchmarkProbeView is rmem.view: a zero-copy view of one DataEntry.
func BenchmarkProbeView(b *testing.B) {
	f := probeMemory()
	probeLoop(b, "rmem.view", false, func(i int) {
		raw, err := f.data.View(f.off(i), f.entrySize)
		if err != nil {
			b.Fatal(err)
		}
		sink += uint64(len(raw))
	})
}

// BenchmarkProbeWriteChunked is rmem.write_chunked: writing the workload's
// first entry over one DataEntry, chunk by chunk.
func BenchmarkProbeWriteChunked(b *testing.B) {
	f := probeMemory()
	probeLoop(b, "rmem.write_chunked", false, func(i int) {
		if err := f.data.WriteChunked(f.off(i), f.entry); err != nil {
			b.Fatal(err)
		}
	})
}

// TestProbeTwinsReportBenchRows runs each twin for a few calls and checks
// that it reports exactly the rows BENCHMARK.json lists for its probe,
// each with the unit it gives there.
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
	for _, twin := range []struct {
		fn   func(*testing.B)
		want map[string]string
	}{
		{BenchmarkProbeRead, map[string]string{"rmem.read_ns": "ns", "rmem.read_bytes": "B"}},
		{BenchmarkProbeView, map[string]string{"rmem.view_ns": "ns"}},
		{BenchmarkProbeWriteChunked, map[string]string{"rmem.write_chunked_ns": "ns"}},
	} {
		res := testing.Benchmark(twin.fn)
		if res.N == 0 || len(res.Extra) != len(twin.want) {
			t.Errorf("%d calls reported %v, want the rows %v", res.N, res.Extra, twin.want)
		}
		for name, unit := range twin.want {
			if _, ok := res.Extra[name]; !ok || units[name] != unit {
				t.Errorf("%s: reported=%v, BENCHMARK.json unit %q; want %q", name, ok, units[name], unit)
			}
		}
	}
}
