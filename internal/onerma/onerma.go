// Package onerma models 1RMA (SIGCOMM 2020), the all-hardware RMA NIC
// CliqueMap also runs over (§7.2.4).
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
	"sync"
	"time"

	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// CostModel calibrates the hardware path.
type CostModel struct {
	// HWServiceNs is the NIC's fixed per-command service time.
	HWServiceNs uint64
	// PCIePerKBNs is the remote PCIe transfer cost per KB.
	PCIePerKBNs uint64
	// RTTScale shrinks the fabric base RTT: 1RMA's PCIe-optimized path
	// sees a lower application-visible RTT than packet systems.
	RTTScale float64
	// ClientCPUNs is the client-side CPU per op (the CliqueMap client
	// dominates 1RMA end-to-end latency in Figure 17).
	ClientCPUNs uint64
	// CStateWakeNs is the worst-case wake penalty after an idle gap.
	CStateWakeNs uint64
	// CStateIdleGap is the idle duration that lets the host drop into a
	// deep C-state.
	CStateIdleGap time.Duration
}

// DefaultCostModel returns the §7.2.4 calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		HWServiceNs:   250,
		PCIePerKBNs:   35,
		RTTScale:      0.8,
		ClientCPUNs:   2200,
		CStateWakeNs:  25000,
		CStateIdleGap: 150 * time.Microsecond,
	}
}

// NIC is one host's 1RMA device.
type NIC struct {
	host *fabric.Host
	reg  *rmem.Registry
	cost CostModel
	acct *stats.CPUAccount
	// hwHist, when set, records per-command fabric+PCIe latencies — the
	// Figure 16 measurement.
	hwHist *stats.Histogram

	mu       sync.Mutex
	sleepsAt uint64 // fabric instant the idle host drops into a deep C-state
	down     bool
	extraNs  uint64 // injected per-command service delay (chaos brownout)
}

// New builds a 1RMA NIC. reg may be nil for client-only hosts. hwHist may
// be nil to skip hardware timestamp collection.
func New(host *fabric.Host, reg *rmem.Registry, cost CostModel, acct *stats.CPUAccount, hwHist *stats.Histogram) *NIC {
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	return &NIC{host: host, reg: reg, cost: cost, acct: acct, hwHist: hwHist}
}

// Host returns the attached fabric host.
func (n *NIC) Host() *fabric.Host { return n.host }

// Registry returns the window registry (nil for client-only hosts).
func (n *NIC) Registry() *rmem.Registry { return n.reg }

// SetDown simulates NIC/host failure.
func (n *NIC) SetDown(down bool) {
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
}

// SetServiceDelay injects ns of extra per-command service latency — a
// degraded device (thermal throttling, a misbehaving PCIe link) — giving
// 1RMA the same brownout actuator the internal/chaos plane drives on
// Pony Express. 0 restores normal service.
func (n *NIC) SetServiceDelay(ns uint64) {
	n.mu.Lock()
	n.extraNs = ns
	n.mu.Unlock()
}

func (n *NIC) serviceDelay() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.extraNs
}

// cstatePenalty returns the wake cost if the host has been idle long
// enough to enter a deep C-state, and stamps the op time. A new NIC has
// been idle forever. The clock is read under mu and held to the last op's
// instant, so a late caller's older instant cannot fake an idle gap.
func (n *NIC) cstatePenalty() (uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return 0, false
	}
	gap := uint64(n.cost.CStateIdleGap)
	now := n.host.NowNs()
	if now+gap < n.sleepsAt {
		now = n.sleepsAt - gap
	}
	asleep := now >= n.sleepsAt
	n.sleepsAt = now + gap
	if asleep {
		return n.cost.CStateWakeNs, true
	}
	return 0, true
}

// Conn is the per-target handle implementing nic.RMA.
type Conn struct {
	from *NIC
	to   *NIC
	f    *fabric.Fabric
}

// Dial connects an initiator to a target over fabric f.
func Dial(f *fabric.Fabric, from, to *NIC) *Conn {
	return &Conn{from: from, to: to, f: f}
}

// Target returns the serving-side NIC.
func (c *Conn) Target() *NIC { return c.to }

// SupportsScar reports false: 1RMA is fixed-function hardware.
func (c *Conn) SupportsScar() bool { return false }

// ScanAndRead is unsupported on 1RMA.
func (c *Conn) ScanAndRead(at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (nic.ScarResult, fabric.OpTrace, error) {
	return c.AppendScanAndRead(nil, nil, at, idxWin, bucketOff, bucketLen, hash, ways)
}

// AppendScanAndRead is unsupported on 1RMA.
func (c *Conn) AppendScanAndRead([]byte, []fabric.Span, uint64, rmem.WindowID, int, int, hashring.KeyHash, int) (nic.ScarResult, fabric.OpTrace, error) {
	return nic.ScarResult{}, fabric.OpTrace{}, nic.ErrNotSupported
}

// Read performs a one-sided hardware read. The hardware component
// (fabric + remote PCIe) is recorded to the NIC's hardware-timestamp
// histogram; client CPU is added on top for the end-to-end trace.
func (c *Conn) Read(at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	return c.AppendRead(nil, make([]fabric.Span, 0, 4), at, win, off, length)
}

// AppendRead is Read on the caller's storage (nic.Appender).
func (c *Conn) AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	tr := fabric.OpTrace{Spans: spans}

	wake, up := c.from.cstatePenalty()
	if !up {
		return dst, tr, nic.ErrUnreachable
	}
	if wake > 0 {
		tr.AddSpan(trace.SpanCStateWake, 0, wake)
	}

	// Client CPU: issuing through the 1RMA command queue.
	tr.AddSpan(trace.SpanEngineIssue, 0, c.from.cost.ClientCPUNs)
	if c.from.acct != nil {
		c.from.acct.Charge("client-1rma", c.from.cost.ClientCPUNs)
	}

	if c.to.reg == nil {
		return dst, tr, nic.ErrUnreachable
	}
	c.to.mu.Lock()
	down := c.to.down
	c.to.mu.Unlock()
	if down || !c.f.Linked(c.from.host.ID(), c.to.host.ID()) {
		return dst, tr, nic.ErrUnreachable
	}

	// Hardware portion: scaled fabric RTT + fixed HW service + PCIe
	// transfer. No utilization-dependent software queueing on the server.
	const reqBytes = 64
	reqAt := uint64(0)
	if at != 0 {
		reqAt = at + tr.Ns
	}
	hw := uint64(float64(c.to.host.DeliverAt(reqAt, reqBytes))*c.to.cost.RTTScale) +
		c.to.cost.HWServiceNs + c.to.serviceDelay() +
		uint64(length)*c.to.cost.PCIePerKBNs/1024

	respAt := uint64(0)
	if at != 0 {
		respAt = at + tr.Ns + hw
	}
	resp, rerr := c.to.reg.AppendRead(dst, win, off, length)
	if rerr != nil {
		hw += uint64(float64(c.from.host.DeliverAt(respAt, 64)) * c.from.cost.RTTScale)
		if c.from.hwHist != nil {
			c.from.hwHist.Record(hw)
		}
		tr.AddSpan(trace.SpanHWService, uint32(length), hw)
		return dst, tr, rerr
	}

	if !c.f.Linked(c.to.host.ID(), c.from.host.ID()) {
		return dst, tr, nic.ErrUnreachable
	}
	hw += uint64(float64(c.from.host.DeliverAt(respAt, length)) * c.from.cost.RTTScale)
	if c.from.hwHist != nil {
		c.from.hwHist.Record(hw)
	}
	tr.AddSpan(trace.SpanHWService, uint32(length), hw)
	tr.AddBytes(reqBytes + length)
	return resp, tr, nil
}
