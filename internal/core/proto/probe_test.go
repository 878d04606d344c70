package proto_test

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// The layer probes of bench/probes.go that time this package's messages —
// proto.set_roundtrip and proto.get_roundtrip — as benchmarks beside the
// code they measure. Each reports, per call, the rows BENCHMARK.json lists
// for its probe:
//
//	go test -run '^$' -bench Probe ./internal/core/proto/

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// probeFixture is the probes' key, value and version: the workload's
// first key, a 128-byte value, and a version off the wall clock.
func probeFixture() (key, value []byte, ver truetime.Version) {
	return []byte(workload.Key(0)), workload.ValueGen(0, 128), truetime.NewGenerator(truetime.NewSystemClock(), 7).Next()
}

// probeLoop times fn as bench/probes.go's probe does — a tenth as many
// warm-up calls, then b.N timed ones — and reports prefix_ns and
// prefix_allocs per call.
func probeLoop(b *testing.B, prefix string, fn func()) {
	for i := 0; i < b.N/10+1; i++ {
		fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, prefix+"_ns")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, prefix+"_allocs")
}

// BenchmarkProbeSetRoundtrip is proto.set_roundtrip: a SET request and its
// MutateResp, each marshalled and unmarshalled.
func BenchmarkProbeSetRoundtrip(b *testing.B) {
	key, value, ver := probeFixture()
	probeLoop(b, "proto.set_roundtrip", func() {
		req, err := proto.UnmarshalSetReq(proto.SetReq{Key: key, Value: value, Version: ver, ConfigID: 1}.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		resp, err := proto.UnmarshalMutateResp(proto.MutateResp{Applied: true, Stored: req.Version}.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		sink += resp.Stored.Seq
	})
}

// BenchmarkProbeGetRoundtrip is proto.get_roundtrip: a GET request and a
// hit's GetResp, each marshalled and unmarshalled.
func BenchmarkProbeGetRoundtrip(b *testing.B) {
	key, value, ver := probeFixture()
	probeLoop(b, "proto.get_roundtrip", func() {
		req, err := proto.UnmarshalGetReq(proto.GetReq{Key: key, ConfigID: 1}.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		resp, err := proto.UnmarshalGetResp(proto.GetResp{Found: true, Value: value, Version: ver}.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		sink += uint64(len(req.Key) + len(resp.Value))
	})
}

// TestProbeTwinsReportBenchRows runs each twin for a few calls and checks
// that it reports exactly its probe's two rows, each under a name
// BENCHMARK.json lists with the unit it gives there.
func TestProbeTwinsReportBenchRows(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
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
		prefix string
		fn     func(*testing.B)
	}{
		{"proto.set_roundtrip", BenchmarkProbeSetRoundtrip},
		{"proto.get_roundtrip", BenchmarkProbeGetRoundtrip},
	} {
		res := testing.Benchmark(twin.fn)
		want := map[string]string{twin.prefix + "_ns": "ns", twin.prefix + "_allocs": "allocs"}
		if res.N == 0 || len(res.Extra) != len(want) {
			t.Errorf("%s: %d calls reported %v, want the rows %v", twin.prefix, res.N, res.Extra, want)
		}
		for name, unit := range want {
			if _, ok := res.Extra[name]; !ok || units[name] != unit {
				t.Errorf("%s: reported=%v, BENCHMARK.json unit %q; want %q", name, ok, units[name], unit)
			}
		}
	}
}
