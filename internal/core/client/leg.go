package client

// Leg executor: every leg a client op sends — an index or SCAR read, a
// data read, a lookup over RPC or MSG, a mutation leg, a
// Touch flush — is started and awaited by the op's legExec, which bills
// it from legTable and places it on the op's timeline.

import (
	"context"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
)

// legKind names what a leg does. A GET's fetch is named by the kind of its
// index legs.
type legKind uint8

const (
	legIndex  legKind = iota // one-sided bucket Read (2×R)
	legScar                  // one-sided ScanAndRead; the DataEntry piggybacks
	legData                  // dependent one-sided Read of a DataEntry
	legMsg                   // lookup over two-sided NIC messaging
	legRPC                   // lookup over RPC
	legMutate                // SET, CAS or ERASE to one replica
	legTouch                 // access-record flush
)

// oneSided reports whether the leg reads replica memory directly — and so
// needs a handshake and a connection, returns raw bytes the client must
// validate itself, and can see a bucket's overflow bit.
func (k legKind) oneSided() bool { return k <= legData }

// rpc reports whether the leg is an RPC.
func (k legKind) rpc() bool { return k >= legRPC }

// legTable is each kind's row. cpu is its client CPU (Figure 7
// calibration); a two-sided lookup bills it once per fetch, on the fetch's
// first leg. A dependent leg's end extends the op; a fan-out's end is
// settleFanout's. note annotates a leg that answered.
var legTable = [...]struct {
	cpu      uint64
	perFetch bool
	extends  bool
	note     uint16
}{
	legIndex:  {cpu: cpu2xR / 2},
	legScar:   {cpu: cpuSCAR},
	legData:   {cpu: cpu2xR / 2, extends: true, note: trace.SpanDataRead},
	legMsg:    {cpu: cpuMSG, perFetch: true},
	legRPC:    {cpu: cpuRPC, perFetch: true},
	legMutate: {},
	legTouch:  {},
}

// member is where a leg goes and what it asks there: a resolved cohort
// member and, by kind, the entry a data leg reads or the method and request
// a two-sided leg sends.
type member struct {
	rep    replica
	ptr    layout.Pointer
	method string
	req    []byte
}

// leg is one started leg: where it starts on the op's timeline and its
// outcome. A NIC, MSG or in-process RPC leg has its outcome, and its bytes
// billed, once started; an RPC leg over a socket is in flight until wait.
type leg struct {
	kind  legKind
	shard int
	at    uint64
	call  rpc.Pending
	resp  []byte
	data  []byte // a SCAR leg's piggybacked DataEntry, when the scan found one
	tr    fabric.OpTrace
	err   error
}

// legExec is one op's leg executor. Its legs read into op's storage and
// are billed and placed on tr, the op's trace.
type legExec struct {
	c   *Client
	ctx context.Context
	op  *trace.OpLease
	tr  fabric.OpTrace
	h   hashring.KeyHash // the op's key: an index leg's bucket

	pin, origin uint64 // the fetch's legs start at origin on tr, pinned at pin
	billed      bool   // the fetch's two-sided lookup CPU is billed
}

// begin opens a fetch at the op's current end, its legs pinned at the
// virtual instant pin (0 = unpinned).
func (x *legExec) begin(pin uint64) { x.pin, x.origin, x.billed = pin, x.tr.Ns, false }

// pinned is the virtual instant the op-timeline instant at falls on.
func (x *legExec) pinned(at uint64) uint64 { return after(x.pin, at-x.origin) }

// start issues one leg of kind k to m, starting at at on the op's timeline,
// and bills its client CPU. Every leg of a fan-out is started before the
// first is awaited, so that legs over a socket overlap.
func (x *legExec) start(k legKind, m member, at uint64) (l leg) {
	l.kind, l.shard, l.at = k, m.rep.shard, at
	if row := legTable[k]; row.cpu != 0 && (!row.perFetch || !x.billed) {
		x.billed = x.billed || row.perFetch
		x.c.chargeCPU(row.cpu)
	}
	var dst []byte
	var spans []fabric.Span
	if k != legMsg { // a MSG leg answers in its own buffer
		dst, spans = x.op.Leg()
	}
	rep, pin, got := &m.rep, x.pinned(at), 0 // got: bytes read into op's storage
	switch {
	case k == legMsg:
		l.resp, l.tr, l.err = x.c.msg(rep.host, pin, m.req)
	case k.rpc():
		if l.call = rpc.Start(x.ctx, x.c.rpcc, dst, spans, rep.addr, m.method, m.req); l.call.InFlight() {
			return l
		}
		l.resp, l.tr, l.err = l.call.Wait(nil)
		got = len(l.resp)
	case k == legData:
		l.resp, l.tr, l.err = nic.Appending(rep.conn).AppendRead(dst, spans, pin, m.ptr.Window, int(m.ptr.Offset), int(m.ptr.Size))
		got = len(l.resp)
	default:
		geo := layout.Geometry{Buckets: rep.hello.Buckets, Ways: rep.hello.Ways}
		off, size := geo.BucketOffset(int(x.h.Lo%uint64(geo.Buckets))), geo.BucketSize()
		if k == legIndex {
			l.resp, l.tr, l.err = nic.Appending(rep.conn).AppendRead(dst, spans, pin, rep.hello.IndexWindow, off, size)
			got = len(l.resp)
			break
		}
		var res nic.ScarResult
		res, l.tr, l.err = nic.Appending(rep.conn).AppendScanAndRead(dst, spans, pin, rep.hello.IndexWindow, off, size, x.h, geo.Ways)
		if l.resp, got = res.Bucket, len(res.Bucket)+len(res.Data); res.Found {
			l.data = res.Data
		}
	}
	x.op.Received(got)
	x.bill(&l)
	return l
}

// wait returns l's outcome, awaiting it if it is in flight, and places it
// on the op's timeline at its start: a dependent leg's end extends the op,
// and an answered leg gets its kind's note. A leg the op does not use (a
// speculative read the vote went against) is not awaited: its bytes are
// billed, its spans left off. An RPC leg lands at the clock's now, not at
// a batch's pinned instant, so wait notes when it returned (see
// fetchViews).
func (x *legExec) wait(l *leg) ([]byte, fabric.OpTrace, error) {
	if l.call.InFlight() {
		l.resp, l.tr, l.err = l.call.Wait(x.op.Free())
		x.op.Received(len(l.resp))
		x.bill(l)
	}
	if l.kind.rpc() && x.c.now != nil {
		x.c.rpcAt.Store(x.c.now())
	}
	row, tr := legTable[l.kind], &x.tr
	tr.AppendSpans(l.tr.Spans, l.at)
	if row.extends {
		tr.Ns = max(tr.Ns, l.at+l.tr.Ns)
	}
	if row.note != 0 && l.err == nil {
		tr.Annotate(row.note, uint32(l.shard), l.at, l.tr.Ns)
	}
	return l.resp, l.tr, l.err
}

// bill adds a leg's bytes to the op's trace once its outcome is in.
func (x *legExec) bill(l *leg) { x.tr.AddBytes(int(l.tr.Bytes)) }

func (c *Client) chargeCPU(ns uint64) {
	if c.acct != nil {
		c.acct.Charge("client", ns)
	}
}
