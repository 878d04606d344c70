package wire_test

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
	"cliquemap/internal/workload"
)

// The layer probes of bench/probes.go that time this package's codec —
// wire.encode and wire.decode — as benchmarks beside the code they
// measure. Each reports, per call, the row BENCHMARK.json lists for its
// probe:
//
//	go test -run '^$' -bench Probe ./internal/wire/

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// probeKV is the probes' key and value: the workload's first key and a
// 128-byte value.
func probeKV() (key, value []byte) { return []byte(workload.Key(0)), workload.ValueGen(0, 128) }

// probeLoop times fn as bench/probes.go's probe does — a tenth as many
// warm-up calls, then b.N timed ones — and reports prefix_ns per call.
func probeLoop(b *testing.B, prefix string, fn func()) {
	for i := 0; i < b.N/10+1; i++ {
		fn()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), prefix+"_ns")
}

// BenchmarkProbeEncode is wire.encode: the key, the value and one integer
// into an encoder sized for them.
func BenchmarkProbeEncode(b *testing.B) {
	key, value := probeKV()
	probeLoop(b, "wire.encode", func() {
		var e wire.Encoder
		e.InitSized(len(key) + len(value) + 48)
		e.Bytes(1, key)
		e.Bytes(2, value)
		e.Uint(3, 42)
		sink += uint64(e.Len())
	})
}

// BenchmarkProbeDecode is wire.decode: walking a SET request's fields and
// viewing its key and value.
func BenchmarkProbeDecode(b *testing.B) {
	key, value := probeKV()
	ver := truetime.NewGenerator(truetime.NewSystemClock(), 7).Next()
	setReq := proto.SetReq{Key: key, Value: value, Version: ver, ConfigID: 1}.Marshal()
	probeLoop(b, "wire.decode", func() {
		var d wire.Decoder
		if err := d.Init(setReq); err != nil {
			b.Fatal(err)
		}
		for d.Next() {
			if d.Tag() <= 2 {
				sink += uint64(len(d.Bytes()))
			}
		}
	})
}

// TestProbeTwinsReportBenchRows runs each twin for a few calls and checks
// that it reports exactly its probe's row, under a name BENCHMARK.json
// lists with the unit it gives there.
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
		name string
		fn   func(*testing.B)
	}{
		{"wire.encode_ns", BenchmarkProbeEncode},
		{"wire.decode_ns", BenchmarkProbeDecode},
	} {
		res := testing.Benchmark(twin.fn)
		if _, ok := res.Extra[twin.name]; res.N == 0 || !ok || len(res.Extra) != 1 || units[twin.name] != "ns" {
			t.Errorf("%d calls reported %v, BENCHMARK.json unit %q; want the row %s in ns", res.N, res.Extra, units[twin.name], twin.name)
		}
	}
}
