package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"cliquemap"
	"cliquemap/internal/core/backend"
)

// probeScale shortens the layer probes' loops; only tests lower it.
var probeScale = 1.0

// runTraced produces the per-layer metrics. It runs on the seam rig — the
// cell assembled from its layers so that both client seams can be wrapped
// — in three parts: an untraced reference window (decorators forwarding),
// whose counters feed group (d) and whose throughput is the base of
// trace.overhead_ratio; a traced window of the same length, for groups (a)
// and (b); and the layer probes (c).
func runTraced(sp spec, seed int64, d time.Duration) (*result, float64, error) {
	rec := newRecorder()
	r, err := newSeamRig(sp, rec)
	if err != nil {
		return nil, 0, err
	}
	defer r.close()
	g, o, err := setUp(r, sp, seed)
	if err != nil {
		return nil, 0, err
	}
	part := d * 2 / 5

	start := snapshot(r, o)
	lc0 := readLayerCounts(r)
	ref := runWindow(r.kv, g, o, part)
	lc1 := readLayerCounts(r)
	mid := snapshot(r, o)

	rec.on = true
	tw := runWindow(tracedKV{cl: r.cl, rec: rec}, g, o, part)
	rec.on = false
	lc2 := readLayerCounts(r)
	end := snapshot(r, o)

	m, err := runProbes(sp, g, probeScale)
	if err != nil {
		return nil, 0, err
	}
	spanMetrics(m, sp, rec, ref, tw, lc1, lc2, mid, end)
	counterMetrics(m, r, ref, lc0, lc1, start, mid)

	res := newResult(perLayer, m, start, end, o)
	if err := rec.writeArtefact(sp.name, res.Metrics); err != nil {
		fmt.Fprintln(os.Stderr, "bench: trace artefact:", err)
	}
	return res, ref.sliceCV(), nil
}

// layerCounts is the cumulative state of every counter group (d) and the
// modelled CPU split of group (b) are derived from.
type layerCounts struct {
	backend                              backend.Counters
	nicQueueNs, nicOps                   uint64
	rpcCalls, rpcQueued, rpcSubmitWaitNs uint64
	retries, torn, fallbacks             uint64
	cpuClientNs, cpuPonyNs, cpuRPCNs     uint64
	gcCPU, totalCPU                      float64 // seconds, from runtime/metrics
}

func readLayerCounts(r *rig) layerCounts {
	var c layerCounts
	for _, b := range r.backends {
		s := b.CountersSnapshot()
		c.backend.Sets += s.Sets
		c.backend.SetsApplied += s.SetsApplied
		c.backend.VersionRejects += s.VersionRejects
		c.backend.CapacityEvictions += s.CapacityEvictions
		c.backend.AssocEvictions += s.AssocEvictions
		c.backend.Overflows += s.Overflows
		ns := b.NICSat()
		c.nicQueueNs += ns.QueueNs
		c.nicOps += ns.Ops
		rs := b.Server().Saturation()
		c.rpcCalls += rs.Calls
		c.rpcQueued += rs.QueuedSubmits
		c.rpcSubmitWaitNs += rs.SubmitWaitNs
	}
	c.retries = r.cl.M.RetryCount()
	c.torn = r.cl.M.TornRetries.Value()
	c.fallbacks = r.cl.M.RPCFallbacks.Value()
	c.cpuClientNs = r.acct.TotalNanos("client") + r.acct.TotalNanos("client-1rma")
	c.cpuPonyNs = r.acct.TotalNanos("pony")
	c.cpuRPCNs = r.acct.TotalNanos("rpc-client") + r.acct.TotalNanos("rpc-server") + r.acct.TotalNanos("handler")
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return c
}

// ratio is a/b, or 0 when the layer did no such work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics fills groups (a) and (b) from the traced window, and the two
// budget ratios from its leg spans against the probes already in m.
func spanMetrics(m map[string]float64, sp spec, rec *recorder, ref, tw *window, lc1, lc2 layerCounts, mid, end counts) {
	gets, muts := &rec.sums[0], &rec.sums[1]
	ops := float64(gets.ops + muts.ops)
	legs := func(name spanName) legSums {
		a, b := gets.legs[name], muts.legs[name]
		return legSums{calls: a.calls + b.calls, ns: a.ns + b.ns, errors: a.errors + b.errors}
	}
	read, scar, call := legs(spanNICRead), legs(spanNICScar), legs(spanRPCCall)

	m["client.self_us_per_op"] = ratio(float64(gets.ns+muts.ns-gets.childNs-muts.childNs), ops) / 1e3
	m["client.nic_legs_per_get"] = ratio(float64(rec.nicLegsInGets), float64(gets.ops))
	m["client.rpc_calls_per_mut"] = ratio(float64(rec.rpcInMuts), float64(muts.ops))
	m["client.retries_per_kop"] = ratio(float64(lc2.retries-lc1.retries), ops) * 1e3
	m["client.torn_retries_per_kop"] = ratio(float64(lc2.torn-lc1.torn), ops) * 1e3
	m["client.rpc_fallbacks_per_kop"] = ratio(float64(lc2.fallbacks-lc1.fallbacks), ops) * 1e3
	m["nic.read_us_per_op"] = ratio(float64(read.ns), ops) / 1e3
	m["nic.scar_us_per_op"] = ratio(float64(scar.ns), ops) / 1e3
	m["nic.calls_per_op"] = ratio(float64(read.calls+scar.calls), ops)
	m["nic.bytes_per_op"] = ratio(float64(rec.nicBytes), ops)
	m["nic.useful_byte_ratio"] = ratio(float64(rec.valueBytes), float64(rec.nicBytes))
	m["rpc.call_us_per_op"] = ratio(float64(call.ns), ops) / 1e3
	m["rpc.calls_per_op"] = ratio(float64(call.calls), ops)
	m["rpc.req_bytes_per_op"] = ratio(float64(rec.rpcReqBytes), ops)
	m["rpc.resp_bytes_per_op"] = ratio(float64(rec.rpcRespBytes), ops)
	m["rpc.errors_per_kop"] = ratio(float64(call.errors), ops) * 1e3
	m["trace.overhead_ratio"] = ratio(ref.opsPerSec(), tw.opsPerSec()) - 1
	m["trace.spans_per_op"] = ratio(ops+float64(read.calls+scar.calls+call.calls), ops)

	// Budget: how much of the time spent inside leg spans the matching
	// probes account for, at (calls × probe ns). An RPC leg is the dispatch
	// floor of its transport plus the handler's work plus the message
	// round trip; what the client adds around the legs is client.self.
	readNs, rpcFloor := m["pony.read_ns"], m["rpc.echo_ns"]
	if sp.transport == cliquemap.OneRMA {
		readNs = m["onerma.read_ns"]
	}
	if sp.tcp {
		rpcFloor = m["rpc_tcp.echo_ns"]
	}
	getLegNs := float64(gets.legs[spanNICRead].ns + gets.legs[spanNICScar].ns + gets.legs[spanRPCCall].ns)
	getProbeNs := float64(gets.legs[spanNICRead].calls)*readNs +
		float64(gets.legs[spanNICScar].calls)*m["pony.scar_ns"] +
		float64(gets.legs[spanRPCCall].calls)*(rpcFloor+m["backend.rpc_get_ns"]-m["rpc.echo_ns"])
	m["budget.get_unattributed_ratio"] = ratio(getLegNs-getProbeNs, getLegNs)
	mutShare := float64(100 - sp.getPct)
	applyNs := ratio(float64(sp.setPct-sp.getPct)*m["backend.apply_set_ns"]+
		float64(sp.casPct-sp.setPct)*m["backend.apply_cas_ns"]+
		float64(100-sp.casPct)*m["backend.apply_erase_ns"], mutShare)
	mutLegNs := float64(muts.legs[spanNICRead].ns + muts.legs[spanNICScar].ns + muts.legs[spanRPCCall].ns)
	mutProbeNs := float64(muts.legs[spanRPCCall].calls) * (rpcFloor + applyNs + m["proto.set_roundtrip_ns"])
	m["budget.mut_unattributed_ratio"] = ratio(mutLegNs-mutProbeNs, mutLegNs)

	mo := &rec.model
	m["model.fabric_us_per_op"] = ratio(float64(mo.fabricNs), ops) / 1e3
	m["model.engine_us_per_op"] = ratio(float64(mo.engineNs), ops) / 1e3
	m["model.hw_service_us_per_op"] = ratio(float64(mo.hwNs), ops) / 1e3
	m["model.rpc_client_us_per_op"] = ratio(float64(mo.rpcClientNs), ops) / 1e3
	m["model.rpc_server_us_per_op"] = ratio(float64(mo.rpcServerNs), ops) / 1e3
	m["model.rpc_queue_us_per_op"] = ratio(float64(mo.rpcQueueNs), ops) / 1e3
	m["model.quorum_wait_us_per_op"] = ratio(float64(mo.quorumWaitNs), ops) / 1e3
	m["model.retry_us_per_op"] = ratio(float64(mo.retryNs), ops) / 1e3
	m["model.wire_bytes_per_op"] = ratio(float64(mo.wireBytes), ops)
	m["model.cpu_client_us_per_op"] = ratio(float64(lc2.cpuClientNs-lc1.cpuClientNs), ops) / 1e3
	m["model.cpu_pony_us_per_op"] = ratio(float64(lc2.cpuPonyNs-lc1.cpuPonyNs), ops) / 1e3
	m["model.cpu_rpc_us_per_op"] = ratio(float64(lc2.cpuRPCNs-lc1.cpuRPCNs), ops) / 1e3
	m["model.mut_mean_us"] = ratio(float64(end.modelMutNs-mid.modelMutNs), float64(end.modelMuts-mid.modelMuts)) / 1e3
}

// counterMetrics fills group (d) from the untraced reference window.
func counterMetrics(m map[string]float64, r *rig, ref *window, lc0, lc1 layerCounts, start, mid counts) {
	ops := float64(ref.ops)
	b0, b1 := lc0.backend, lc1.backend
	m["backend.evictions_per_kop"] = ratio(float64(b1.CapacityEvictions+b1.AssocEvictions-b0.CapacityEvictions-b0.AssocEvictions), ops) * 1e3
	m["backend.version_rejects_per_kop"] = ratio(float64(b1.VersionRejects-b0.VersionRejects), ops) * 1e3
	m["backend.sets_applied_ratio"] = ratio(float64(b1.SetsApplied-b0.SetsApplied), float64(b1.Sets-b0.Sets))
	m["backend.overflows"] = float64(b1.Overflows - b0.Overflows)
	var util float64
	for _, b := range r.backends {
		util += b.DataUtilization() / float64(len(r.backends))
	}
	m["backend.data_utilization"] = util
	m["pony.engine_queue_us_per_op"] = ratio(float64(lc1.nicQueueNs-lc0.nicQueueNs), ops) / 1e3
	m["pony.ops_per_get"] = ratio(float64(lc1.nicOps-lc0.nicOps), float64(mid.gets-start.gets))
	m["rpc.queued_submit_ratio"] = ratio(float64(lc1.rpcQueued-lc0.rpcQueued), float64(lc1.rpcCalls-lc0.rpcCalls))
	m["rpc.submit_wait_us_per_call"] = ratio(float64(lc1.rpcSubmitWaitNs-lc0.rpcSubmitWaitNs), float64(lc1.rpcCalls-lc0.rpcCalls)) / 1e3
	m["runtime.gc_cycles"] = float64(ref.gcCycles)
	m["runtime.gc_pause_ms"] = float64(ref.gcPause.Microseconds()) / 1e3
	m["runtime.gc_cpu_fraction"] = ratio(lc1.gcCPU-lc0.gcCPU, lc1.totalCPU-lc0.totalCPU)
	m["runtime.heap_live_mb"] = float64(ref.heapLive) / (1 << 20)
	m["model.get_p99_us"] = float64(r.cl.M.GetLatency.Percentile(99)) / 1e3

	ref.realClockMetrics(m)
	get := ref.samples(-1, opGet)
	m["driver.samples"] = float64(ref.ops)
	m["driver.clock_overhead_ns"] = clockOverheadNs()
	m["driver.slice_cv"] = ref.sliceCV()
	m["driver.get_p999_us"] = percentileUs(get, 99.9)
	tail := tailPercentile(len(get))
	m["driver.get_tail_us"] = percentileUs(get, tail)
	m["driver.get_tail_pct"] = tail
	m["driver.mut_p50_us"] = ref.percentileUs(50, mutationKinds...)
	m["driver.mut_p99_us"] = ref.percentileUs(99, mutationKinds...)
	m["driver.mut_p999_us"] = percentileUs(ref.samples(-1, mutationKinds...), 99.9)
	m["driver.set_p50_us"] = ref.percentileUs(50, opSet)
	m["driver.cas_p50_us"] = ref.percentileUs(50, opCas)
	m["driver.erase_p50_us"] = ref.percentileUs(50, opErase)
}
