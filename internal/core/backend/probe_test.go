package backend_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// The layer probes of bench/probes.go that time this package — the
// exported Apply* and the RPC lookup handler — as benchmarks beside the
// code they measure, on the probes' fixture shaped like mix_rw_1rma's
// task: 8 192 buckets of 14 ways, a 32 MiB data region and 1 KiB values,
// cycling over twice the keys the region fits, so that every SET evicts as
// the workload's do. Each reports, per call, the rows BENCHMARK.json lists
// for its probe:
//
//	go test -run '^$' -bench Probe ./internal/core/backend/

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

const (
	probeBuckets   = 8192
	probeDataBytes = 32 << 20
	probeValueSize = 1 << 10
	probeGetKeys   = 4096 // the keys the GET probe cycles over, all resident
)

// probeTask is the probes' standalone task, its in-process network client,
// the keys it cycles over and the value every SET writes. last is the
// version of the latest SET.
type probeTask struct {
	b     *backend.Backend
	rpcc  *rpc.Client
	keys  [][]byte
	value []byte
	vgen  *truetime.Generator
	last  truetime.Version
}

// newProbeTask builds the task and SETs every key of its cycle once.
func newProbeTask(b *testing.B) *probeTask {
	b.Helper()
	net := rpc.NewNetwork(fabric.New(2, fabric.Params{}), rpc.CostModel{}, nil)
	store := config.NewStore(config.CellConfig{Mode: config.R1, Shards: 1, ShardAddrs: []string{"probe-backend"},
		Backends: []config.BackendInfo{{Shard: 0, Addr: "probe-backend", HostID: 0}}})
	be, err := backend.New(backend.Options{Shard: 0, HostID: 0, Addr: "probe-backend",
		Geometry:  layout.Geometry{Buckets: probeBuckets, Ways: layout.DefaultWays},
		DataBytes: probeDataBytes, DataMaxBytes: probeDataBytes, ReshapeEnabled: true,
	}, store, rmem.NewRegistry(), net, truetime.NewGenerator(truetime.NewSystemClock(), 9), nil)
	if err != nil {
		b.Fatal(err)
	}
	value := workload.ValueGen(0, probeValueSize)
	class := 64 // the slab class of one entry
	for class < layout.DataEntrySize(len(workload.Key(0)), len(value)) {
		class *= 2
	}
	p := &probeTask{b: be, rpcc: net.Client(1, "probe"), value: value, vgen: truetime.NewGenerator(truetime.NewSystemClock(), 10)}
	p.keys = make([][]byte, 2*probeDataBytes/class)
	for i := range p.keys {
		p.keys[i] = []byte(workload.Key(uint64(1<<40 + i)))
	}
	for i := range p.keys {
		p.set(b, i)
	}
	return p
}

// set applies a SET of the i-th key of the cycle at a fresh version.
func (p *probeTask) set(b *testing.B, i int) {
	p.last = p.vgen.Next()
	if applied, _, _ := p.b.ApplySet(p.keys[i%len(p.keys)], p.value, p.last); !applied {
		b.Fatal("apply_set probe: not applied")
	}
}

// probeLoop times fn as bench/probes.go's probe does — a tenth as many
// warm-up calls, then b.N timed ones — and reports prefix_ns and
// prefix_allocs per call.
func probeLoop(b *testing.B, prefix string, fn func(i int)) {
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
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, prefix+"_allocs")
}

// afterSet times fn alone, each call right after a SET of the key it acts
// on, so that fn finds the key resident at a known version, and reports
// prefix_ns per call.
func afterSet(b *testing.B, p *probeTask, prefix string, fn func(i int)) {
	var ns time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.set(b, i)
		t0 := time.Now()
		fn(i)
		ns += time.Since(t0)
	}
	b.StopTimer()
	b.ReportMetric(float64(ns.Nanoseconds())/float64(b.N), prefix+"_ns")
}

// BenchmarkProbeApplySet is backend.apply_set: ApplySet of the next key of
// the cycle, which evicts to make room.
func BenchmarkProbeApplySet(b *testing.B) {
	p := newProbeTask(b)
	probeLoop(b, "backend.apply_set", func(i int) { p.set(b, i) })
}

// BenchmarkProbeApplyCas is backend.apply_cas: ApplyCas of the key just
// set, at its version.
func BenchmarkProbeApplyCas(b *testing.B) {
	p := newProbeTask(b)
	afterSet(b, p, "backend.apply_cas", func(i int) {
		if applied, _ := p.b.ApplyCas(p.keys[i%len(p.keys)], p.value, p.last, p.vgen.Next()); !applied {
			b.Fatal("apply_cas probe: not applied")
		}
	})
}

// BenchmarkProbeApplyErase is backend.apply_erase: ApplyErase of the key
// just set.
func BenchmarkProbeApplyErase(b *testing.B) {
	p := newProbeTask(b)
	afterSet(b, p, "backend.apply_erase", func(i int) {
		if applied, _ := p.b.ApplyErase(p.keys[i%len(p.keys)], p.vgen.Next()); !applied {
			b.Fatal("apply_erase probe: not applied")
		}
	})
}

// BenchmarkProbeRPCGet is backend.rpc_get: a GET of one of the first 4 096
// keys, set again so they are resident, through the in-process network.
func BenchmarkProbeRPCGet(b *testing.B) {
	p := newProbeTask(b)
	for i := range probeGetKeys {
		p.set(b, i)
	}
	ctx := context.Background()
	probeLoop(b, "backend.rpc_get", func(i int) {
		resp, _, err := p.rpcc.Call(ctx, "probe-backend", proto.MethodGet, proto.GetReq{Key: p.keys[i%probeGetKeys]}.Marshal())
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
		fn   func(*testing.B)
		rows map[string]string
	}{
		{BenchmarkProbeApplySet, map[string]string{"backend.apply_set_ns": "ns", "backend.apply_set_allocs": "allocs"}},
		{BenchmarkProbeApplyCas, map[string]string{"backend.apply_cas_ns": "ns"}},
		{BenchmarkProbeApplyErase, map[string]string{"backend.apply_erase_ns": "ns"}},
		{BenchmarkProbeRPCGet, map[string]string{"backend.rpc_get_ns": "ns", "backend.rpc_get_allocs": "allocs"}},
	} {
		res := testing.Benchmark(twin.fn)
		if res.N == 0 || len(res.Extra) != len(twin.rows) {
			t.Errorf("%d calls reported %v, want the rows %v", res.N, res.Extra, twin.rows)
		}
		for name, unit := range twin.rows {
			if _, ok := res.Extra[name]; !ok || units[name] != unit {
				t.Errorf("%s: reported=%v, BENCHMARK.json unit %q; want %q", name, ok, units[name], unit)
			}
		}
	}
}
