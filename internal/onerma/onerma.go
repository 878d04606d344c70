// Package onerma is the 1RMA row of internal/nic: the all-hardware RMA NIC
// (SIGCOMM 2020) CliqueMap also runs over (§7.2.4).
//
// The tradeoffs against Pony Express, per the paper:
//
//   - No SCAR: the serving path is fixed-function hardware, so every GET
//     is a 2×R — two fabric round trips.
//   - No software bottleneck on the serving side: the NIC serves reads at
//     line rate regardless of host CPU load, and the NIC↔memory PCIe
//     interaction is heavily optimized, so the application-visible RTT is
//     *lower* than a packet-oriented software path.
//   - The NIC emits hardware timestamps for the combined fabric + remote
//     PCIe latency of each command (Figure 16's "command executor
//     timestamps"), separate from end-to-end GET latency (Figure 17).
//
// One testbed artifact is also modelled because the paper calls it out:
// at very low load, power-saving C-state transitions make latency
// *highest* at the *lowest* op rates; by ~250K GET/s/client the effect
// disappears (§7.2.4).
package onerma

import (
	"math"
	"sync"

	"cliquemap/internal/fabric"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
)

// CostModel is the §7.2.4 calibration: the row's constants below.
type CostModel struct{}

const (
	hwServiceNs   = 250     // the NIC's fixed per-command service time
	pciePerKBNs   = 35      // remote PCIe transfer cost per KB
	rttScale      = 0.8     // the PCIe-optimized path's lower fabric RTT
	clientCPUNs   = 2200    // client CPU per op (it dominates Figure 17)
	cstateWakeNs  = 25_000  // worst-case wake penalty after an idle gap
	cstateIdleGap = 150_000 // idle ns that let the host drop into a deep C-state
)

// NIC and Conn are internal/nic's, running this row.
type (
	NIC  = nic.NIC
	Conn = nic.Conn
)

// New builds a 1RMA NIC. reg may be nil for client-only hosts. hwHist
// collects the NIC's hardware timestamps; nil keeps them to itself.
func New(host *fabric.Host, reg *rmem.Registry, _ CostModel, acct *stats.CPUAccount, hwHist *stats.Histogram) *NIC {
	if hwHist == nil {
		hwHist = new(stats.Histogram)
	}
	return nic.New(host, reg, acct, &row{host: host, hist: hwHist})
}

// Dial connects an initiator to a target over fabric f.
func Dial(f *fabric.Fabric, from, to *NIC) *Conn { return nic.Dial(f, from, to) }

// row is one host's command executor: fixed-function service with no
// queueing, and hardware timestamps (Figure 16) recorded to hist.
type row struct {
	host *fabric.Host
	hist *stats.Histogram

	mu       sync.Mutex
	sleepsAt uint64 // fabric instant the idle host drops into a deep C-state
}

// Issue is the client CPU of a command-queue issue, after the C-state wake
// if the host has idled long enough to sleep (a new NIC has idled
// forever). The clock is read under mu and held to the last op's instant,
// so a late caller's older instant cannot fake an idle gap.
func (r *row) Issue(at, delay uint64) (wake, cpu, ns, slot uint64) {
	r.mu.Lock()
	now := r.host.NowNs()
	if now+cstateIdleGap < r.sleepsAt {
		now = r.sleepsAt - cstateIdleGap
	}
	if now >= r.sleepsAt {
		wake = cstateWakeNs
	}
	r.sleepsAt = now + cstateIdleGap
	r.mu.Unlock()
	return wake, clientCPUNs, clientCPUNs, math.MaxUint64
}

// Serve is the fixed hardware service plus the remote PCIe transfer; the
// host CPU bills nothing.
func (r *row) Serve(extra, payload, delay uint64) (ns, cpu uint64) {
	return hwServiceNs + extra + delay + payload*pciePerKBNs/1024, 0
}

func (r *row) Receive(int) uint64                    { return 0 }
func (r *row) Wire(ns uint64) uint64                 { return uint64(float64(ns) * rttScale) }
func (r *row) Stamps() *stats.Histogram              { return r.hist }
func (r *row) Scar() (perEntryNs uint64, ok bool)    { return 0, false }
func (r *row) Messaging() (wakeupNs uint64, ok bool) { return 0, false }
func (r *row) Component() string                     { return "client-1rma" }
func (r *row) Saturation() nic.Saturation            { return nic.Saturation{} }
