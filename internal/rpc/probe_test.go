package rpc_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/rpc"
	"cliquemap/internal/workload"
)

// The layer probes of bench/probes.go that time this package's dispatch
// floor — rpc.echo in process and rpc_tcp.echo across the loopback socket
// — as benchmarks beside the code they measure. Each reports, per call,
// the rows BENCHMARK.json lists for its probe:
//
//	go test -run '^$' -bench Probe ./internal/rpc/

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// echoNetwork is the probes' network: one task serving Echo, which
// answers with its request, on a two-host fabric on the wall clock.
func echoNetwork() *rpc.Network {
	net := rpc.NewNetwork(fabric.New(2, fabric.Params{}), rpc.CostModel{}, nil)
	net.Serve("echo", 0).Handle("Echo", func(_ context.Context, _ string, req []byte) ([]byte, error) { return req, nil })
	return net
}

// probeLoop times fn as bench/probes.go's probe does — a tenth as many
// warm-up calls, then b.N timed ones — and reports prefix_ns and
// prefix_allocs per call, and prefix_bytes when bytes is set.
func probeLoop(b *testing.B, prefix string, bytes bool, fn func()) {
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
	if bytes {
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, prefix+"_bytes")
	}
}

// BenchmarkProbeEcho is rpc.echo: a plain Call of the workload's first key
// to the echo task, in process.
func BenchmarkProbeEcho(b *testing.B) {
	ctx, key := context.Background(), []byte(workload.Key(0))
	cl := echoNetwork().Client(1, "probe")
	probeLoop(b, "rpc.echo", false, func() {
		resp, _, err := cl.Call(ctx, "echo", "Echo", key)
		if err != nil {
			b.Fatal(err)
		}
		sink += uint64(len(resp))
	})
}

// BenchmarkProbeTCPEcho is rpc_tcp.echo: the same Call framed over one
// loopback connection to a gateway in front of the echo task.
func BenchmarkProbeTCPEcho(b *testing.B) {
	ctx, key := context.Background(), []byte(workload.Key(0))
	gw, err := rpc.ServeTCP(echoNetwork(), "127.0.0.1:0", 1)
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	cl, err := rpc.DialTCP(gw.Addr(), "probe")
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	probeLoop(b, "rpc_tcp.echo", true, func() {
		resp, _, err := cl.Call(ctx, "echo", "Echo", key)
		if err != nil {
			b.Fatal(err)
		}
		sink += uint64(len(resp))
	})
}

// TestProbeTwinsReportBenchRows runs each twin for a few calls and checks
// that it reports exactly its probe's rows, each under a name
// BENCHMARK.json lists with the unit it gives there.
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
		prefix string
		fn     func(*testing.B)
		want   map[string]string
	}{
		{"rpc.echo", BenchmarkProbeEcho, map[string]string{"rpc.echo_ns": "ns", "rpc.echo_allocs": "allocs"}},
		{"rpc_tcp.echo", BenchmarkProbeTCPEcho, map[string]string{"rpc_tcp.echo_ns": "ns", "rpc_tcp.echo_allocs": "allocs", "rpc_tcp.echo_bytes": "B"}},
	} {
		res := testing.Benchmark(twin.fn)
		if res.N == 0 || len(res.Extra) != len(twin.want) {
			t.Errorf("%s: %d calls reported %v, want the rows %v", twin.prefix, res.N, res.Extra, twin.want)
		}
		for name, unit := range twin.want {
			if _, ok := res.Extra[name]; !ok || units[name] != unit {
				t.Errorf("%s: reported=%v, BENCHMARK.json unit %q; want %q", name, ok, units[name], unit)
			}
		}
	}
}
