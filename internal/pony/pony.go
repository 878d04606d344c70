// Package pony models Pony Express, Google's software-defined NIC (Snap),
// as CliqueMap uses it: single-threaded engines own registered memory and
// serve one-sided ops without waking server application threads, and the
// engine pool scales out with load (§7.2.4, Figure 15).
//
// Two properties drive the paper's results and are reproduced:
//
//   - SCAR (Scan-and-Read, §6.3): a custom RMA-like op that scans a Bucket
//     server-side inside the NIC and returns Bucket + DataEntry in one
//     round trip, halving both RTTs and per-op fixed CPU relative to 2×R.
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

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// CostModel carries the calibrated per-op CPU costs in nanoseconds.
// Defaults approximate Figure 7: an individual SCAR costs about as much as
// a normal RMA read, and two-sided messaging pays thread wakeups that
// dwarf both.
type CostModel struct {
	EngineServiceNs uint64 // fixed engine cost to issue or serve one RMA op
	ScanPerEntryNs  uint64 // SCAR's per-IndexEntry scan cost
	PerKBNs         uint64 // payload handling cost per KB moved
	MsgWakeupNs     uint64 // server thread wakeup for two-sided messaging
}

// DefaultCostModel returns the Figure 7 calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		EngineServiceNs: 440,
		ScanPerEntryNs:  18,
		PerKBNs:         42,
		MsgWakeupNs:     1500,
	}
}

// EngineConfig controls the scale-out model.
type EngineConfig struct {
	MaxEngines int     // paper: four engines per task
	ScaleOutAt float64 // per-engine utilization that triggers scale-out
	ScaleInAt  float64 // utilization that releases an engine
}

// DefaultEngineConfig matches the §7.2.4 setup (four engines).
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{MaxEngines: 4, ScaleOutAt: 0.70, ScaleInAt: 0.25}
}

// NIC is one host's Pony Express instance. A backend host passes its
// window registry so inbound one-sided ops can be served; a client-only
// host passes nil.
type NIC struct {
	host *fabric.Host
	reg  *rmem.Registry
	cost CostModel
	ecfg EngineConfig
	acct *stats.CPUAccount

	mu         sync.Mutex
	engines    int
	rateEWMA   float64 // ops/sec estimate (windowed, smoothed)
	winStart   uint64  // fabric instant the current rate window opened
	winOps     int
	issued     uint64 // fabric instant the last pinned leg left this engine
	down       bool
	opCounter  uint64
	extraNs    uint64 // injected per-visit engine delay (fault injection)
	msgHandler MsgHandler

	// Saturation telemetry, maintained under mu by service(): cumulative
	// modelled engine-queue wait and the last computed utilization. They
	// cost two stores under an already-held lock.
	queueNs uint64  // cumulative modelled queue-wait ns across ops
	lastRho float64 // utilization at the most recent engine visit
}

// New builds a NIC on host. reg may be nil for client-only hosts; acct may
// be nil to skip CPU accounting.
func New(host *fabric.Host, reg *rmem.Registry, cost CostModel, ecfg EngineConfig, acct *stats.CPUAccount) *NIC {
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	if ecfg == (EngineConfig{}) {
		ecfg = DefaultEngineConfig()
	}
	return &NIC{host: host, reg: reg, cost: cost, ecfg: ecfg, acct: acct, engines: 1}
}

// Host returns the fabric host this NIC is attached to.
func (n *NIC) Host() *fabric.Host { return n.host }

// Registry returns the window registry (nil on client-only hosts).
func (n *NIC) Registry() *rmem.Registry { return n.reg }

// SetDown simulates a host/NIC failure; subsequent inbound ops fail with
// nic.ErrUnreachable until SetDown(false).
func (n *NIC) SetDown(down bool) {
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
}

// SetServiceDelay injects ns of extra engine latency into every service
// visit on this NIC — a degraded engine (overloaded core, antagonist VM)
// for fault-injection tests. 0 restores normal service.
//
// This is the leaf actuator behind the internal/chaos plane's Brownout
// hazard; prefer driving it through the plane so injections share one
// master seed and are tallied in the hazard counters.
func (n *NIC) SetServiceDelay(ns uint64) {
	n.mu.Lock()
	n.extraNs = ns
	n.mu.Unlock()
}

// Engines returns the current engine count (the Figure 15 heatmap metric).
func (n *NIC) Engines() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.engines
}

// service accounts one engine visit: updates the load estimate, adapts the
// engine count, and returns the modelled service + queue latency.
func (n *NIC) service(opCost uint64) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return 0, nic.ErrUnreachable
	}
	n.opCounter++
	// Windowed op-rate estimate: ops per second of the fabric clock over
	// ≥5ms windows, EWMA-smoothed. Averaging inverse inter-arrival gaps
	// instead would diverge under concurrent callers — clustered arrivals
	// make E[1/gap] unbounded, so the estimate pegs at burst rate no matter
	// how low the offered load is, and rho saturates spuriously. The clock
	// is read under mu and held to the window start, so an instant older
	// than one already recorded cannot wrap the window.
	now := max(n.host.NowNs(), n.winStart)
	if n.opCounter == 1 {
		n.winStart = now
	}
	n.winOps++
	if el := float64(now-n.winStart) / 1e9; el >= 0.005 {
		inst := float64(n.winOps) / el
		n.rateEWMA = 0.7*n.rateEWMA + 0.3*inst
		n.winStart, n.winOps = now, 0
	}
	// Per-engine utilization: offered CPU-seconds per clock second.
	rho := n.rateEWMA * float64(opCost) / 1e9 / float64(n.engines)
	switch {
	case rho > n.ecfg.ScaleOutAt && n.engines < n.ecfg.MaxEngines:
		n.engines++
	case rho < n.ecfg.ScaleInAt && n.engines > 1:
		n.engines--
	}
	rho = n.rateEWMA * float64(opCost) / 1e9 / float64(n.engines)
	q := fabric.QueueModel(float64(opCost), fabric.Clamp01(rho))
	n.queueNs += q
	n.lastRho = rho
	return opCost + q + n.extraNs, nil
}

// issueAt returns the fabric instant a leg pinned at at leaves this
// (initiating) engine, which issues pinned legs back to back, one service
// slot each; an unpinned leg (0) stays unpinned.
func (n *NIC) issueAt(at uint64) uint64 {
	if at == 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.issued = max(n.issued, at) + n.cost.EngineServiceNs
	return n.issued
}

// Saturation is a point-in-time snapshot of the NIC's engine-queue
// pressure: how many engines are spun up, the utilization the adaptive
// scaler last saw, and the cumulative modelled queue wait ops have eaten.
type Saturation struct {
	Engines  uint64 // current engine count (gauge)
	RhoMilli uint64 // utilization at the last engine visit ×1000 (gauge)
	QueueNs  uint64 // cumulative modelled engine-queue ns across ops
	Ops      uint64 // cumulative ops served
}

// Saturation snapshots the NIC's queue-pressure telemetry.
func (n *NIC) Saturation() Saturation {
	n.mu.Lock()
	defer n.mu.Unlock()
	return Saturation{
		Engines:  uint64(n.engines),
		RhoMilli: uint64(fabric.Clamp01(n.lastRho) * 1000),
		QueueNs:  n.queueNs,
		Ops:      n.opCounter,
	}
}

func (n *NIC) charge(ns uint64) {
	if n.acct != nil {
		n.acct.Charge("pony", ns)
	}
}

func (n *NIC) chargeOnly(ns uint64) {
	if n.acct != nil {
		n.acct.ChargeOnly("pony", ns)
	}
}

// visit runs one engine visit costing cost ns, bills its CPU, and records
// it on tr as a code span carrying arg.
func (n *NIC) visit(tr *fabric.OpTrace, code uint16, arg uint32, cost uint64) error {
	ns, err := n.service(cost)
	if err == nil {
		n.charge(cost)
		tr.AddSpan(code, arg, ns)
	}
	return err
}

func (n *NIC) payloadCost(bytes int) uint64 {
	return uint64(bytes) * n.cost.PerKBNs / 1024
}

// Conn is a client-side handle from an initiating NIC to a serving NIC —
// the unit the CliqueMap client holds per backend. It implements nic.RMA.
type Conn struct {
	from *NIC
	to   *NIC
	f    *fabric.Fabric
}

// Dial connects an initiator NIC to a target NIC over fabric f.
func Dial(f *fabric.Fabric, from, to *NIC) *Conn {
	return &Conn{from: from, to: to, f: f}
}

// Target returns the serving-side NIC.
func (c *Conn) Target() *NIC { return c.to }

// linkUp / linkBack report whether the request / response direction of
// this conn is passing traffic — a single atomic load unless chaos has
// isolated a host on the fabric.
func (c *Conn) linkUp() bool   { return c.f.Linked(c.from.host.ID(), c.to.host.ID()) }
func (c *Conn) linkBack() bool { return c.f.Linked(c.to.host.ID(), c.from.host.ID()) }

// SupportsScar reports true: SCAR is Pony Express's differentiator.
func (c *Conn) SupportsScar() bool { return true }

// deliverAt bills a delivery on h at the leg's modelled instant, at +
// tr.Ns, capped at its issue slot and (in DeliverAt) at now; at 0 is now.
// A GET's legs fall due after its last slot, so they reach the downlink one
// slot apart however long the host ran them; a wall cap let that time count.
func deliverAt(h *fabric.Host, at, slot uint64, tr *fabric.OpTrace, sz int) uint64 {
	var t uint64
	if at != 0 {
		t = min(at+tr.Ns, slot)
	}
	return h.DeliverAt(t, sz)
}

// Read performs a one-sided read: client engine issues, request crosses
// the fabric, server engine reads registered memory, response returns.
// No server application thread is involved — only NIC engine CPU is
// billed. at is the op's virtual start instant (0 = now).
func (c *Conn) Read(at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	return c.AppendRead(nil, make([]fabric.Span, 0, 4), at, win, off, length)
}

// AppendRead is Read on the caller's storage (nic.Appender).
func (c *Conn) AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	tr := fabric.OpTrace{Spans: spans}

	if err := c.from.visit(&tr, trace.SpanEngineIssue, 0, c.from.cost.EngineServiceNs); err != nil {
		return dst, tr, err
	}
	slot := c.from.issueAt(at)

	const reqBytes = 64 // op descriptor
	tr.Add(deliverAt(c.to.host, at, slot, &tr, reqBytes))
	tr.AddBytes(reqBytes)

	if c.to.reg == nil || !c.linkUp() {
		return dst, tr, nic.ErrUnreachable
	}
	serveCost := c.to.cost.EngineServiceNs + c.to.payloadCost(length)
	if err := c.to.visit(&tr, trace.SpanEngineService, uint32(length), serveCost); err != nil {
		return dst, tr, err
	}

	resp, rerr := c.to.reg.AppendRead(dst, win, off, length)
	if rerr != nil {
		// The error response still crosses the fabric back.
		tr.Add(deliverAt(c.from.host, at, slot, &tr, 64))
		return dst, tr, rerr
	}
	if !c.linkBack() {
		return dst, tr, nic.ErrUnreachable
	}

	tr.Add(deliverAt(c.from.host, at, slot, &tr, length))
	tr.AddBytes(length)
	recvCost := c.from.cost.EngineServiceNs/2 + c.from.payloadCost(length)
	c.from.chargeOnly(recvCost)
	tr.AddSpan(trace.SpanEngineRecv, 0, recvCost)
	return resp, tr, nil
}

// ScanAndRead executes SCAR (§6.3): one request, a server-NIC-side bucket
// scan, and one response carrying bucket + matched DataEntry. Exactly one
// fabric round trip.
func (c *Conn) ScanAndRead(at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (nic.ScarResult, fabric.OpTrace, error) {
	return c.AppendScanAndRead(nil, make([]fabric.Span, 0, 4), at, idxWin, bucketOff, bucketLen, hash, ways)
}

// AppendScanAndRead is ScanAndRead on the caller's storage (nic.Appender).
func (c *Conn) AppendScanAndRead(dst []byte, spans []fabric.Span, at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (nic.ScarResult, fabric.OpTrace, error) {
	tr := fabric.OpTrace{Spans: spans}
	var res nic.ScarResult

	if err := c.from.visit(&tr, trace.SpanEngineIssue, 0, c.from.cost.EngineServiceNs); err != nil {
		return res, tr, err
	}
	slot := c.from.issueAt(at)

	const reqBytes = 96 // descriptor + hash + geometry
	tr.Add(deliverAt(c.to.host, at, slot, &tr, reqBytes))
	tr.AddBytes(reqBytes)

	if c.to.reg == nil || !c.linkUp() {
		return res, tr, nic.ErrUnreachable
	}
	// Server engine: read the bucket into the response, scan it there,
	// optionally follow the pointer.
	scanCost := c.to.cost.EngineServiceNs + uint64(ways)*c.to.cost.ScanPerEntryNs
	n := len(dst)
	resp, rerr := c.to.reg.AppendRead(dst, idxWin, bucketOff, bucketLen)
	if rerr != nil {
		if serr := c.to.visit(&tr, trace.SpanEngineService, 0, scanCost); serr != nil {
			return res, tr, serr
		}
		tr.Add(deliverAt(c.from.host, at, slot, &tr, 64))
		return res, tr, rerr
	}
	// The response is one buffer, as on the wire: the bucket, then the
	// DataEntry the scan pointed at. The entry's extent is checked before it
	// sizes anything — the pointer came out of RMA-visible memory. A failed
	// pointer chase (window revoked mid-op, a damaged pointer) returns just
	// the bucket; the client validates and retries via RPC. Bucket and entry
	// are two separately-locked reads, never one atomic snapshot.
	if raw, verr := layout.ViewBucket(resp[n:], ways); verr == nil {
		if e, _, ok := raw.Find(hash); ok && !e.Ptr.Nil() {
			if withData, derr := c.to.reg.AppendRead(resp, e.Ptr.Window, int(e.Ptr.Offset), int(e.Ptr.Size)); derr == nil {
				resp = withData
				res.Data = resp[n+bucketLen:]
				res.Found = true
				scanCost += c.to.payloadCost(len(res.Data))
			}
		}
	}
	res.Bucket = resp[n : n+bucketLen : n+bucketLen]
	respBytes := len(resp) - n
	if serr := c.to.visit(&tr, trace.SpanEngineService, uint32(respBytes), scanCost); serr != nil {
		return nic.ScarResult{}, tr, serr
	}

	if !c.linkBack() {
		return nic.ScarResult{}, tr, nic.ErrUnreachable
	}
	tr.Add(deliverAt(c.from.host, at, slot, &tr, respBytes))
	tr.AddBytes(respBytes)
	recvCost := c.from.cost.EngineServiceNs/2 + c.from.payloadCost(respBytes)
	c.from.chargeOnly(recvCost)
	tr.AddSpan(trace.SpanEngineRecv, 0, recvCost)
	return res, tr, nil
}

// MsgHandler serves two-sided messages delivered up to the application —
// the MSG lookup strategy of Figure 7. Unlike Read/ScanAndRead, handling a
// message requires waking a server application thread, which is exactly
// the CPU cost SCAR avoids.
type MsgHandler func(req []byte) ([]byte, error)

// SetMsgHandler installs the application's message handler on this NIC.
func (n *NIC) SetMsgHandler(h MsgHandler) {
	n.mu.Lock()
	n.msgHandler = h
	n.mu.Unlock()
}

func (n *NIC) msgHandlerLocked() MsgHandler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.msgHandler
}

// Message performs a two-sided exchange: the request crosses the fabric,
// the server NIC wakes an application thread to run the handler, and the
// response returns. One round trip, but with the thread-wakeup CPU the
// one-sided ops avoid.
func (c *Conn) Message(at uint64, req []byte) ([]byte, fabric.OpTrace, error) {
	var tr fabric.OpTrace
	tr.Spans = make([]fabric.Span, 0, 4)

	if err := c.from.visit(&tr, trace.SpanEngineIssue, 0, c.from.cost.EngineServiceNs); err != nil {
		return nil, tr, err
	}
	slot := c.from.issueAt(at)

	tr.Add(deliverAt(c.to.host, at, slot, &tr, len(req)+64))
	tr.AddBytes(len(req) + 64)

	h := c.to.msgHandlerLocked()
	if h == nil || !c.linkUp() {
		return nil, tr, nic.ErrUnreachable
	}
	// Server: engine receive + application thread wakeup + handler run.
	serveCost := c.to.cost.EngineServiceNs + c.to.cost.MsgWakeupNs + c.to.payloadCost(len(req))
	if err := c.to.visit(&tr, trace.SpanMsgWakeup, uint32(len(req)), serveCost); err != nil {
		return nil, tr, err
	}

	resp, herr := h(req)
	if herr != nil {
		tr.Add(deliverAt(c.from.host, at, slot, &tr, 64))
		return nil, tr, herr
	}
	if !c.linkBack() {
		return nil, tr, nic.ErrUnreachable
	}

	tr.Add(deliverAt(c.from.host, at, slot, &tr, len(resp)+64))
	tr.AddBytes(len(resp) + 64)
	recvCost := c.from.cost.EngineServiceNs/2 + c.from.payloadCost(len(resp))
	c.from.chargeOnly(recvCost)
	tr.AddSpan(trace.SpanEngineRecv, 0, recvCost)
	return resp, tr, nil
}
