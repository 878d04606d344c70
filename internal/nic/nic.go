// Package nic is the one NIC model under CliqueMap. Datacenters are
// heterogeneous (§6.3, §7.2.4): CliqueMap runs 2×R over any transport
// (Pony Express, 1RMA, RDMA), SCAR where the software NIC offers it, and
// RPC where no RMA protocol applies. Every leg runs one skeleton — issue →
// deliver request → serve → deliver response → receive — and only the
// terms of each phase differ, per substrate Row (internal/pony,
// internal/onerma).
package nic

import (
	"errors"
	"sync/atomic"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

var (
	// ErrNotSupported reports that the transport lacks the requested op
	// (e.g. SCAR on 1RMA, where a cell builds a SCAR client as 2×R).
	ErrNotSupported = errors.New("nic: operation not supported by transport")
	// ErrUnreachable reports that the target NIC is down (crashed backend
	// host); clients retry on other replicas.
	ErrUnreachable = errors.New("nic: target unreachable")
)

// ScarResult is the combined response of a Scan-and-Read (§6.3): a
// one-slot bucket — the scanned bucket's header and the IndexEntry that
// matched (a zeroed slot on a miss), layout.ViewBucket(Bucket, 1) — plus,
// when the scan matched, the DataEntry bytes the entry pointed at.
type ScarResult struct {
	Bucket []byte // the bucket's header, then the matched slot
	Data   []byte // raw DataEntry bytes; nil if the scan found no match
	Found  bool
}

// RMA is the per-target one-sided op surface. The `at` argument is the
// op's virtual start instant (fabric nanoseconds; 0 = now): parallel legs
// of one logical op pass a common value so their responses contend for the
// initiator's downlink in the latency model.
type RMA interface {
	// Read performs a one-sided read of length bytes at off in window win
	// on the target, returning the bytes and the op's modelled latency.
	Read(at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error)
	// ScanAndRead executes the SCAR primitive: scan the bucket at
	// [bucketOff, bucketOff+bucketLen) in idxWin NIC-side for hash, follow
	// the matching IndexEntry's pointer into the data region, and return
	// the bucket's header, the matched slot and the data in a single round
	// trip.
	ScanAndRead(at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error)
	SupportsScar() bool // whether ScanAndRead is available
}

// Appender is RMA's two ops on the caller's storage: the response comes
// back as append(dst, …) (for a SCAR, as views of it) and the spans as
// append(spans, …); on error dst comes back unchanged.
type Appender interface {
	AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error)
	AppendScanAndRead(dst []byte, spans []fabric.Span, at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error)
}

// Appending returns conn's append form, or, for a conn without one (a
// decorator that wraps only RMA), its Read and ScanAndRead behind it.
func Appending(conn RMA) Appender {
	if a, ok := conn.(Appender); ok {
		return a
	}
	return oldForm{conn}
}

type oldForm struct{ RMA }

func (o oldForm) AppendRead(_ []byte, _ []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	return o.Read(at, win, off, length)
}

func (o oldForm) AppendScanAndRead(_ []byte, _ []fabric.Span, at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error) {
	return o.ScanAndRead(at, idxWin, bucketOff, bucketLen, hash, ways)
}

// Row is one substrate's cost terms and capabilities. It answers in
// values, so a leg's trace stays on its caller's stack.
type Row interface {
	// Issue prices issuing a leg pinned at at (0: now) with delay ns
	// injected: a wake stall billed first (0: none), its CPU and latency,
	// and the instant the leg's traffic is capped at.
	Issue(at, delay uint64) (wake, cpu, ns, slot uint64)
	// Serve prices extra ns of op work (a scan, a thread wakeup) and
	// payload bytes with delay ns injected: latency and CPU (0: none).
	Serve(extra, payload, delay uint64) (ns, cpu uint64)
	Receive(body int) (cpu uint64)         // the initiator's CPU to land a response
	Wire(ns uint64) uint64                 // scales a fabric delivery's latency
	Stamps() *stats.Histogram              // whole hardware commands' time; nil: none
	Scar() (perEntryNs uint64, ok bool)    // SCAR's scan cost, if offered
	Messaging() (wakeupNs uint64, ok bool) // a message's wakeup, if offered
	Component() string                     // the CPU-account component billed
	Saturation() Saturation                // engine-queue pressure (0: none)
}

// Saturation is a point-in-time snapshot of a NIC's engine-queue pressure.
type Saturation struct {
	Engines  uint64 // current engine count (gauge)
	RhoMilli uint64 // utilization at the last engine visit ×1000 (gauge)
	QueueNs  uint64 // cumulative modelled engine-queue ns across ops
	Ops      uint64 // cumulative ops served
}

// MsgHandler serves two-sided messages delivered up to the application —
// the MSG lookup strategy of Figure 7, which wakes a server thread.
type MsgHandler func(req []byte) ([]byte, error)

// NIC is one host's network interface. reg is nil on a client-only host
// and acct nil to skip CPU accounting.
type NIC struct {
	host *fabric.Host
	reg  *rmem.Registry
	acct *stats.CPUAccount
	row  Row

	down  atomic.Bool
	delay atomic.Uint64 // injected per-visit service delay (fault injection)
	msg   atomic.Pointer[MsgHandler]
}

// New builds a NIC on host running row.
func New(host *fabric.Host, reg *rmem.Registry, acct *stats.CPUAccount, row Row) *NIC {
	return &NIC{host: host, reg: reg, acct: acct, row: row}
}

// Registry returns the window registry (nil on client-only hosts).
func (n *NIC) Registry() *rmem.Registry { return n.reg }

// SetDown simulates a host/NIC failure: its ops fail with ErrUnreachable.
func (n *NIC) SetDown(down bool) { n.down.Store(down) }

// SetServiceDelay injects ns of extra latency into every service visit on
// this NIC (a degraded engine or device, the chaos plane's Brownout).
func (n *NIC) SetServiceDelay(ns uint64) { n.delay.Store(ns) }

// SetMsgHandler installs the application's message handler on this NIC.
func (n *NIC) SetMsgHandler(h MsgHandler) { n.msg.Store(&h) }

// Messaging reports whether the NIC's row offers two-sided messages.
func (n *NIC) Messaging() bool { _, ok := n.row.Messaging(); return ok }

// Saturation snapshots the NIC's queue-pressure telemetry.
func (n *NIC) Saturation() Saturation { return n.row.Saturation() }

// charge bills ns of CPU to the row's component, as one op if count.
func (n *NIC) charge(ns uint64, count bool) {
	switch {
	case n.acct == nil || ns == 0:
	case count:
		n.acct.Charge(n.row.Component(), ns)
	default:
		n.acct.ChargeOnly(n.row.Component(), ns)
	}
}

// Conn is a client-side handle from an initiating NIC to a serving NIC —
// the unit the CliqueMap client holds per backend.
type Conn struct {
	from, to *NIC
	f        *fabric.Fabric
}

// Dial connects an initiator NIC to a target NIC over fabric f.
func Dial(f *fabric.Fabric, from, to *NIC) *Conn { return &Conn{from: from, to: to, f: f} }

// Target returns the serving-side NIC.
func (c *Conn) Target() *NIC { return c.to }

// SupportsScar reports whether the target's row offers SCAR.
func (c *Conn) SupportsScar() bool { _, ok := c.to.row.Scar(); return ok }

// linked reports whether traffic passes from a's host to b's.
func (c *Conn) linked(a, b *NIC) bool { return c.f.Linked(a.host.ID(), b.host.ID()) }

// leg is one leg's bill as the skeleton builds it. On a row that stamps
// (hist set), request to response is one hardware command: its time and
// bytes collect in hw and hwBytes and land as one span with the response.
type leg struct {
	tr       fabric.OpTrace
	at, slot uint64 // the op's pinned start (0: now); the traffic's cap
	hist     *stats.Histogram
	hw       uint64
	hwBytes  int
}

// start issues a leg and delivers its sz-byte request to a target that
// serves (its registry, or a message handler). A software NIC sends the
// request before learning its target is gone; a hardware command never
// starts.
func (c *Conn) start(spans []fabric.Span, at uint64, sz int, serves bool) (l leg, err error) {
	l.tr.Spans, l.at = spans, at
	if c.from.down.Load() {
		return l, ErrUnreachable
	}
	wake, cpu, ns, slot := c.from.row.Issue(at, c.from.delay.Load())
	if wake > 0 {
		l.tr.AddSpan(trace.SpanCStateWake, 0, wake)
	}
	c.from.charge(cpu, true)
	l.tr.AddSpan(trace.SpanEngineIssue, 0, ns)
	l.slot, l.hist = slot, c.from.row.Stamps()
	up := serves && !c.to.down.Load() && c.linked(c.from, c.to)
	if up || l.hist == nil {
		l.deliver(c.to.host, c.from.row, sz, sz)
	}
	if !up {
		return l, ErrUnreachable
	}
	return l, nil
}

// deliver moves sz bytes onto h, billing bill of them, at the leg's
// modelled instant: at + its time so far, capped at its issue slot and (in
// DeliverAt) at now; at 0 is now. A GET's legs thus reach the downlink one
// slot apart however long the host ran them.
func (l *leg) deliver(h *fabric.Host, row Row, sz, bill int) {
	var t uint64
	if l.at != 0 {
		t = min(l.at+l.tr.Ns+l.hw, l.slot)
	}
	ns := row.Wire(h.DeliverAt(t, sz))
	if l.hist != nil {
		l.hw, l.hwBytes = l.hw+ns, l.hwBytes+bill
		return
	}
	l.tr.Add(ns)
	l.tr.AddBytes(bill)
}

// serve runs the target's phase: extra ns of op work plus payload bytes,
// recorded as a code span carrying arg.
func (c *Conn) serve(l *leg, code uint16, arg uint32, extra uint64, payload int) {
	ns, cpu := c.to.row.Serve(extra, uint64(payload), c.to.delay.Load())
	c.to.charge(cpu, true)
	if l.hist != nil {
		l.hw += ns
		return
	}
	l.tr.AddSpan(code, arg, ns)
}

// finish lands the target's response to a served leg: on err a 64-byte
// error response, else sz bytes (body of them payload) the initiator
// receives if the link back passes traffic. A stamped command lands as one
// span carrying arg, with its bytes if it succeeded.
func (c *Conn) finish(l *leg, arg uint32, sz, body int, err error) error {
	if err == nil && !c.linked(c.to, c.from) {
		return ErrUnreachable
	}
	bill := sz
	if err != nil {
		sz, bill, l.hwBytes = 64, 0, 0
	}
	l.deliver(c.from.host, c.from.row, sz, bill)
	if l.hist != nil {
		l.hist.Record(l.hw)
		l.tr.AddSpan(trace.SpanHWService, arg, l.hw)
		l.tr.AddBytes(l.hwBytes)
	}
	if err != nil {
		return err
	}
	if ns := c.from.row.Receive(body); ns > 0 {
		c.from.charge(ns, false)
		l.tr.AddSpan(trace.SpanEngineRecv, 0, ns)
	}
	return nil
}

// Read performs a one-sided read: the target reads registered memory
// without waking an application thread.
func (c *Conn) Read(at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	return c.AppendRead(nil, make([]fabric.Span, 0, 4), at, win, off, length)
}

// AppendRead is Read on the caller's storage (Appender).
func (c *Conn) AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	l, err := c.start(spans, at, 64, c.to.reg != nil) // an op descriptor
	if err != nil {
		return dst, l.tr, err
	}
	c.serve(&l, trace.SpanEngineService, uint32(length), 0, length)
	resp, err := c.to.reg.AppendRead(dst, win, off, length)
	if err = c.finish(&l, uint32(length), length, length, err); err != nil {
		return dst, l.tr, err
	}
	return resp, l.tr, nil
}

// ScanAndRead executes SCAR (§6.3): one request, a server-NIC-side bucket
// scan, and one response carrying the bucket's header, the matched
// IndexEntry and the DataEntry it names.
func (c *Conn) ScanAndRead(at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error) {
	return c.AppendScanAndRead(nil, make([]fabric.Span, 0, 4), at, idxWin, bucketOff, bucketLen, hash, ways)
}

// AppendScanAndRead is ScanAndRead on the caller's storage (Appender).
func (c *Conn) AppendScanAndRead(dst []byte, spans []fabric.Span, at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error) {
	perEntry, ok := c.to.row.Scar()
	if !ok {
		return ScarResult{}, fabric.OpTrace{}, ErrNotSupported
	}
	var res ScarResult
	l, err := c.start(spans, at, 96, c.to.reg != nil) // descriptor + hash + geometry
	if err != nil {
		return res, l.tr, err
	}
	// The NIC scans the bucket where it lies, under the index region's
	// lock, and answers with a one-slot bucket: the header, then the matched
	// slot (a zeroed one on a miss), then the DataEntry its pointer names —
	// one buffer, as on the wire. The bucket itself never enters dst. The
	// entry's extent is checked before it sizes anything — the pointer came
	// out of RMA-visible memory. A failed pointer chase (window revoked
	// mid-op, a damaged pointer) returns the slot alone; the client
	// validates and retries via RPC. Scan and entry are two separately
	// locked reads, never one atomic snapshot.
	scan, n, resp := uint64(ways)*perEntry, len(dst), dst
	var e layout.IndexEntry
	var hit bool
	if err := c.to.reg.Peek(idxWin, bucketOff, bucketLen, func(bucket []byte) {
		resp, e, hit = layout.AppendMatch(dst, bucket, ways, hash)
	}); err != nil {
		c.serve(&l, trace.SpanEngineService, 0, scan, 0)
		err = c.finish(&l, 0, 0, 0, err)
		return res, l.tr, err
	}
	reply := len(resp) - n
	if hit && !e.Ptr.Nil() {
		if withData, derr := c.to.reg.AppendRead(resp, e.Ptr.Window, int(e.Ptr.Offset), int(e.Ptr.Size)); derr == nil {
			resp = withData
			res.Data = resp[n+reply:]
			res.Found = true
		}
	}
	res.Bucket = resp[n : n+reply : n+reply]
	sz := len(resp) - n
	c.serve(&l, trace.SpanEngineService, uint32(sz), scan, len(res.Data))
	if err := c.finish(&l, uint32(sz), sz, sz, nil); err != nil {
		return ScarResult{}, l.tr, err
	}
	return res, l.tr, nil
}

// Message performs a two-sided exchange: one round trip, but with the
// thread-wakeup CPU the one-sided ops avoid.
func (c *Conn) Message(at uint64, req []byte) ([]byte, fabric.OpTrace, error) {
	wakeup, ok := c.to.row.Messaging()
	if !ok {
		return nil, fabric.OpTrace{}, ErrNotSupported
	}
	h := c.to.msg.Load()
	l, err := c.start(make([]fabric.Span, 0, 4), at, len(req)+64, h != nil && *h != nil)
	if err != nil {
		return nil, l.tr, err
	}
	c.serve(&l, trace.SpanMsgWakeup, uint32(len(req)), wakeup, len(req))
	resp, err := (*h)(req)
	if err = c.finish(&l, uint32(len(req)), len(resp)+64, len(resp), err); err != nil {
		return nil, l.tr, err
	}
	return resp, l.tr, nil
}
