package main

import (
	"fmt"

	"cliquemap"
)

// opKind is one public client call.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opCas
	opErase
	numKinds
)

// spec is one workload: the cell it runs against, the client it drives,
// and the op stream it draws. Every cell is 3 shards, R=3.2, no spares,
// default HotK, chaos off; the data region is fully populated up front
// (DataBytes == DataMaxBytes) so the live heap stays small enough for the
// collector to cycle several times a second (see README, "small heap").
type spec struct {
	name string
	why  string

	transport cliquemap.Transport
	strategy  cliquemap.Strategy
	tcp       bool // drive a StrategyRPC client through ServeTCP + DialTCP
	touch     int  // client TouchBatch

	buckets   int // index buckets per backend (14 ways each)
	dataBytes int // data region per backend

	keys      int     // key space
	valueSize int     // bytes per value
	values    int     // distinct values in the pool a write draws from
	zipfS     float64 // 0 = uniform key choice
	preload   int     // keys SET before the warm-up, hottest first
	warmOps   int     // fixed-count warm-up, part of setup_s

	// Cumulative op-mix thresholds out of 100: get < set < cas < 100.
	getPct, setPct, casPct int

	// resident: the index and data region hold every key, so a GET that
	// misses a written key is a failure. False only where eviction runs.
	resident bool
}

var specs = []spec{
	{
		name: "get_small_scar",
		why:  "per-op fixed cost: client assemble/quorum, pony, fabric and DecodeBucket do all the work; rpc, backend, slab and eviction do none",

		transport: cliquemap.PonyExpress, strategy: cliquemap.LookupSCAR,
		buckets: 32768, dataBytes: 64 << 20,
		keys: 100_000, valueSize: 128, values: 100_000,
		preload: 100_000, warmOps: 20_000,
		getPct: 100, setPct: 100, casPct: 100,
		resident: true,
	},
	{
		name: "get_large_scar",
		why:  "same code path as get_small_scar but bytes dominate: rmem copies, checksum, DecodeDataEntry, fabric serialization",

		transport: cliquemap.PonyExpress, strategy: cliquemap.LookupSCAR,
		buckets: 1024, dataBytes: 64 << 20,
		keys: 2_000, valueSize: 16 << 10, values: 2_000,
		preload: 2_000, warmOps: 10_000,
		getPct: 100, setPct: 100, casPct: 100,
		resident: true,
	},
	{
		name: "mix_rw_1rma",
		why:  "writes beside reads on 1RMA 2xR: mutations cross rpc, proto/wire, backend apply, slab and eviction while GETs race bucket rewrites; working set exceeds the cache",

		transport: cliquemap.OneRMA, strategy: cliquemap.Lookup2xR, touch: 64,
		buckets: 8192, dataBytes: 32 << 20,
		keys: 200_000, valueSize: 1 << 10, values: 4096, zipfS: 1.1,
		preload: 40_000, warmOps: 30_000,
		getPct: 50, setPct: 90, casPct: 95,
	},
	{
		name: "rpc_tcp_remote",
		why:  "the only path over a real (loopback) socket, used by every out-of-process caller: tcp framing, wire, proto, backend localGet; all RMA layers idle",

		transport: cliquemap.PonyExpress, strategy: cliquemap.LookupRPC, tcp: true,
		buckets: 16384, dataBytes: 16 << 20,
		keys: 20_000, valueSize: 128, values: 20_000,
		preload: 20_000, warmOps: 2_000,
		getPct: 90, setPct: 100, casPct: 100,
		resident: true,
	},
}

func specByName(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// shares is the op mix as a percentage per kind.
func (sp spec) shares() [numKinds]int {
	return [numKinds]int{opGet: sp.getPct, opSet: sp.setPct - sp.getPct, opCas: sp.casPct - sp.setPct, opErase: 100 - sp.casPct}
}

// metricDef names one reported number. The same tables drive what the
// benchmark prints and what the tests hold BENCHMARK.json to.
type metricDef struct {
	name, unit string
}

// endToEnd are measured with tracing off, on every workload (--trace 0),
// and gated: each has a bound in BENCHMARK.json. Besides the set-up time
// they are the numbers that repeat on a shared machine — counts and the
// modelled clock. The real-clock throughput and latencies do not repeat
// within any bound the manifest may set (README, "Why the real clock is
// not gated"), so they are the ungated realClock metrics below.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_op", "allocs"},
	{"bytes_per_op", "B"},
	{"model_get_mean_us", "us"},
	{"model_cpu_us_per_op", "us"},
	{"get_hit_ratio", "ratio"},
	{"resident_bytes_per_user_byte", "ratio"},
	{"peak_rss_mb", "MB"},
}

// realClock are what a caller pays in wall time and CPU, tracing off. An
// untraced run measures them over its whole window on the public rig and
// reports them beside the gated metrics (table, result file, -info); the
// traced run reports them from its untraced reference window, as part of
// perLayer.
var realClock = []metricDef{
	{"driver.ops_s", "ops/s"},
	{"driver.get_p50_us", "us"},
	{"driver.get_p99_us", "us"},
	{"driver.cpu_us_per_op", "us"},
}

// perLayer are produced by the traced run (--trace 1): decorator spans,
// the modelled-clock decomposition, layer probes, and counters.
var perLayer = []metricDef{
	// (a) spans recorded by the decorators at the nic.RMA and rpc.Caller seams
	{"client.self_us_per_op", "us"},
	{"client.nic_legs_per_get", "count"},
	{"client.rpc_calls_per_mut", "count"},
	{"client.retries_per_kop", "count"},
	{"client.torn_retries_per_kop", "count"},
	{"client.rpc_fallbacks_per_kop", "count"},
	{"nic.read_us_per_op", "us"},
	{"nic.scar_us_per_op", "us"},
	{"nic.calls_per_op", "count"},
	{"nic.bytes_per_op", "B"},
	{"nic.useful_byte_ratio", "ratio"},
	{"rpc.call_us_per_op", "us"},
	{"rpc.calls_per_op", "count"},
	{"rpc.req_bytes_per_op", "B"},
	{"rpc.resp_bytes_per_op", "B"},
	{"rpc.errors_per_kop", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans_per_op", "count"},
	{"budget.get_unattributed_ratio", "ratio"},
	{"budget.mut_unattributed_ratio", "ratio"},
	// (b) modelled clock
	{"model.fabric_us_per_op", "us"},
	{"model.engine_us_per_op", "us"},
	{"model.hw_service_us_per_op", "us"},
	{"model.rpc_client_us_per_op", "us"},
	{"model.rpc_server_us_per_op", "us"},
	{"model.rpc_queue_us_per_op", "us"},
	{"model.quorum_wait_us_per_op", "us"},
	{"model.retry_us_per_op", "us"},
	{"model.wire_bytes_per_op", "B"},
	{"model.cpu_client_us_per_op", "us"},
	{"model.cpu_pony_us_per_op", "us"},
	{"model.cpu_rpc_us_per_op", "us"},
	{"model.get_p99_us", "us"},
	{"model.mut_mean_us", "us"},
	// (c) layer probes
	{"hashring.hash_ns", "ns"},
	{"truetime.next_ns", "ns"},
	{"layout.decode_bucket_ns", "ns"},
	{"layout.decode_entry_ns", "ns"},
	{"layout.decode_entry_allocs", "allocs"},
	{"layout.encode_entry_ns", "ns"},
	{"checksum.sum_ns", "ns"},
	{"rmem.read_ns", "ns"},
	{"rmem.read_bytes", "B"},
	{"rmem.view_ns", "ns"},
	{"rmem.write_chunked_ns", "ns"},
	{"fabric.deliver_ns", "ns"},
	{"pony.read_ns", "ns"},
	{"pony.read_allocs", "allocs"},
	{"pony.read_bytes", "B"},
	{"pony.scar_ns", "ns"},
	{"pony.scar_allocs", "allocs"},
	{"pony.scar_bytes", "B"},
	{"onerma.read_ns", "ns"},
	{"onerma.read_allocs", "allocs"},
	{"onerma.read_bytes", "B"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"proto.set_roundtrip_ns", "ns"},
	{"proto.set_roundtrip_allocs", "allocs"},
	{"proto.get_roundtrip_ns", "ns"},
	{"proto.get_roundtrip_allocs", "allocs"},
	{"rpc.echo_ns", "ns"},
	{"rpc.echo_allocs", "allocs"},
	{"rpc_tcp.echo_ns", "ns"},
	{"rpc_tcp.echo_allocs", "allocs"},
	{"rpc_tcp.echo_bytes", "B"},
	{"backend.apply_set_ns", "ns"},
	{"backend.apply_set_allocs", "allocs"},
	{"backend.apply_cas_ns", "ns"},
	{"backend.apply_erase_ns", "ns"},
	{"backend.rpc_get_ns", "ns"},
	{"backend.rpc_get_allocs", "allocs"},
	{"slab.alloc_free_ns", "ns"},
	{"slab.internal_frag", "ratio"},
	{"eviction.touch_ns", "ns"},
	{"eviction.add_evict_ns", "ns"},
	// (d) counters read through public getters after the untraced window
	{"backend.evictions_per_kop", "count"},
	{"backend.version_rejects_per_kop", "count"},
	{"backend.sets_applied_ratio", "ratio"},
	{"backend.overflows", "count"},
	{"backend.data_utilization", "ratio"},
	{"pony.engine_queue_us_per_op", "us"},
	{"pony.ops_per_get", "count"},
	{"rpc.queued_submit_ratio", "ratio"},
	{"rpc.submit_wait_us_per_call", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.heap_live_mb", "MB"},
	{"driver.ops_s", "ops/s"},
	{"driver.get_p50_us", "us"},
	{"driver.get_p99_us", "us"},
	{"driver.cpu_us_per_op", "us"},
	{"driver.samples", "count"},
	{"driver.clock_overhead_ns", "ns"},
	{"driver.slice_cv", "ratio"},
	{"driver.get_p999_us", "us"},
	{"driver.get_tail_us", "us"},
	{"driver.get_tail_pct", "%"},
	{"driver.mut_p50_us", "us"},
	{"driver.mut_p99_us", "us"},
	{"driver.mut_p999_us", "us"},
	{"driver.set_p50_us", "us"},
	{"driver.cas_p50_us", "us"},
	{"driver.erase_p50_us", "us"},
}
