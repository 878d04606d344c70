// Package pony is the Pony Express row of internal/nic: Google's
// software-defined NIC (Snap) as CliqueMap uses it. Single-threaded
// engines own registered memory and serve one-sided ops without waking
// server application threads, and the engine pool scales out with load
// (§7.2.4, Figure 15).
//
// Two properties drive the paper's results and are reproduced:
//
//   - SCAR (Scan-and-Read, §6.3): a custom RMA-like op that scans a Bucket
//     server-side inside the NIC and returns, in one round trip, the
//     bucket's header, the IndexEntry that matched and the DataEntry it
//     names — halving both RTTs and per-op fixed CPU relative to 2×R.
//
//   - Engine scale-out: engines are single-threaded and either time-share
//     a core or fan out to more cores as load rises. Scale-out reduces
//     tail latency because receive parallelism grows (Figure 15's bands).
//
// CPU costs are billed to a stats.CPUAccount under the "pony" component,
// with constants calibrated to Figure 7 (CPU-ns/op around 10²–10³).
package pony

import (
	"sync"

	"cliquemap/internal/fabric"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
)

// CostModel carries the calibrated per-op CPU costs in nanoseconds. The
// zero value takes Figure 7's calibration: an individual SCAR costs about
// as much as a normal RMA read, and two-sided messaging pays thread
// wakeups that dwarf both.
type CostModel struct {
	EngineServiceNs uint64 // fixed engine cost to issue or serve one RMA op
	ScanPerEntryNs  uint64 // SCAR's per-IndexEntry scan cost
	PerKBNs         uint64 // payload handling cost per KB moved
	MsgWakeupNs     uint64 // server thread wakeup for two-sided messaging
}

// EngineConfig controls the scale-out model. The zero value is the §7.2.4
// setup: four engines, out above 70 % utilization, in below 25 %.
type EngineConfig struct {
	MaxEngines int     // paper: four engines per task
	ScaleOutAt float64 // per-engine utilization that triggers scale-out
	ScaleInAt  float64 // utilization that releases an engine
}

// NIC and Conn are internal/nic's, running this row.
type (
	NIC  = nic.NIC
	Conn = nic.Conn
)

// New builds a NIC on host. reg may be nil for client-only hosts; acct may
// be nil to skip CPU accounting.
func New(host *fabric.Host, reg *rmem.Registry, cost CostModel, ecfg EngineConfig, acct *stats.CPUAccount) *NIC {
	if cost == (CostModel{}) {
		cost = CostModel{EngineServiceNs: 440, ScanPerEntryNs: 18, PerKBNs: 42, MsgWakeupNs: 1500}
	}
	if ecfg == (EngineConfig{}) {
		ecfg = EngineConfig{MaxEngines: 4, ScaleOutAt: 0.70, ScaleInAt: 0.25}
	}
	return nic.New(host, reg, acct, &row{host: host, cost: cost, ecfg: ecfg, engines: 1})
}

// Dial connects an initiator NIC to a target NIC over fabric f.
func Dial(f *fabric.Fabric, from, to *NIC) *Conn { return nic.Dial(f, from, to) }

// row is one host's engine pool: every issue, serve and receive is an
// engine visit, and the pool scales with the offered load.
type row struct {
	host *fabric.Host
	cost CostModel
	ecfg EngineConfig

	mu       sync.Mutex
	engines  int
	rateEWMA float64 // ops/sec estimate (windowed, smoothed)
	winStart uint64  // fabric instant the current rate window opened
	winOps   int
	issued   uint64 // fabric instant the last pinned leg left this engine
	ops      uint64
	queueNs  uint64  // cumulative modelled queue-wait ns across ops
	lastRho  float64 // utilization at the most recent engine visit
}

// Issue is an engine visit; the engine issues pinned legs back to back,
// one service slot each, and an unpinned leg (0) stays unpinned.
func (r *row) Issue(at, delay uint64) (wake, cpu, ns, slot uint64) {
	ns, cpu = r.Serve(0, 0, delay)
	if at != 0 {
		r.mu.Lock()
		r.issued = max(r.issued, at) + r.cost.EngineServiceNs
		slot = r.issued
		r.mu.Unlock()
	}
	return 0, cpu, ns, slot
}

// Serve accounts one engine visit: it updates the load estimate, adapts
// the engine count, and returns the modelled service + queue latency.
func (r *row) Serve(extra, payload, delay uint64) (ns, cpu uint64) {
	cost := r.cost.EngineServiceNs + extra + payload*r.cost.PerKBNs/1024
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	// Windowed op-rate estimate: ops per second of the fabric clock over
	// ≥5ms windows, EWMA-smoothed. Averaging inverse inter-arrival gaps
	// instead would diverge under concurrent callers — clustered arrivals
	// make E[1/gap] unbounded, so the estimate pegs at burst rate no matter
	// how low the offered load is, and rho saturates spuriously. The clock
	// is read under mu and held to the window start, so an instant older
	// than one already recorded cannot wrap the window.
	now := max(r.host.NowNs(), r.winStart)
	if r.ops == 1 {
		r.winStart = now
	}
	r.winOps++
	if el := float64(now-r.winStart) / 1e9; el >= 0.005 {
		inst := float64(r.winOps) / el
		r.rateEWMA = 0.7*r.rateEWMA + 0.3*inst
		r.winStart, r.winOps = now, 0
	}
	// Per-engine utilization: offered CPU-seconds per clock second.
	rho := r.rateEWMA * float64(cost) / 1e9 / float64(r.engines)
	switch {
	case rho > r.ecfg.ScaleOutAt && r.engines < r.ecfg.MaxEngines:
		r.engines++
	case rho < r.ecfg.ScaleInAt && r.engines > 1:
		r.engines--
	}
	rho = r.rateEWMA * float64(cost) / 1e9 / float64(r.engines)
	q := fabric.QueueModel(float64(cost), fabric.Clamp01(rho))
	r.queueNs += q
	r.lastRho = rho
	return cost + q + delay, cost
}

// Receive is the initiating engine's half-visit to land a response.
func (r *row) Receive(body int) uint64 {
	return r.cost.EngineServiceNs/2 + uint64(body)*r.cost.PerKBNs/1024
}

func (r *row) Wire(ns uint64) uint64                 { return ns }
func (r *row) Stamps() *stats.Histogram              { return nil }
func (r *row) Scar() (perEntryNs uint64, ok bool)    { return r.cost.ScanPerEntryNs, true }
func (r *row) Messaging() (wakeupNs uint64, ok bool) { return r.cost.MsgWakeupNs, true }
func (r *row) Component() string                     { return "pony" }

// Saturation reports the engine count (Figure 15's metric) and pressure.
func (r *row) Saturation() nic.Saturation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return nic.Saturation{
		Engines:  uint64(r.engines),
		RhoMilli: uint64(fabric.Clamp01(r.lastRho) * 1000),
		QueueNs:  r.queueNs,
		Ops:      r.ops,
	}
}
