package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/wire"
)

// This file puts the RPC network on real sockets: a TCPGateway accepts
// connections and proxies framed calls into the in-process Network, and a
// TCPClient implements Caller over such a connection. This is how
// processes outside the cell's address space — remote tools, other
// services, the WAN path of Table 1 — reach CliqueMap's RPC surface.
//
// Frame format (both directions): a 4-byte little-endian length prefix
// followed by a wire-encoded message. Requests carry {id, target addr,
// method, principal, payload}; responses carry {id, ok, payload|error}.
// Responses may arrive out of order; the id correlates them, so one
// connection multiplexes concurrent calls.
//
// Buffer ownership, the rule nic.Appender follows: a received frame is
// scratch of its connection (client) or of its call record (gateway), and
// what leaves it is a copy into storage the caller owns — AppendCall's dst
// and spans. The gateway's handler gets req as a view of the record's frame,
// its until it returns. Everything on the send side is connection scratch.

const (
	// maxTCPFrame bounds a frame (fail-closed against corrupt prefixes).
	maxTCPFrame = 64 << 20
	// tcpPrefix is the length prefix in front of every frame.
	tcpPrefix = 4
	// maxSendScratch is the largest buffer a connection or call record
	// keeps, so one huge message does not pin its size for good.
	maxSendScratch = 1 << 20
	// tcpDispatchLimit bounds the calls of one connection the gateway runs
	// at once; past it the connection's reader stops reading.
	tcpDispatchLimit = 64
	// A connection interns at most internEntries strings of at most
	// internMaxLen bytes.
	internEntries = 64
	internMaxLen  = 128
)

type tcpRequest struct {
	ID        uint64
	Addr      string
	Method    string
	Principal string
	Payload   []byte
	// Trace context (tags 6-8, additive): lets a remote caller's op
	// identity cross the socket so spans recorded inside the cell
	// attribute to it.
	TraceID uint64
	Kind    string
	Attempt uint64
}

func (r *tcpRequest) encode(e *wire.Encoder) {
	e.Uint(1, r.ID)
	e.String(2, r.Addr)
	e.String(3, r.Method)
	e.String(4, r.Principal)
	e.Bytes(5, r.Payload)
	if r.TraceID != 0 {
		e.Uint(6, r.TraceID)
		e.String(7, r.Kind)
		e.Uint(8, r.Attempt)
	}
}

// decode parses frame in place: Payload aliases it and the strings come
// out of names.
func (r *tcpRequest) decode(frame []byte, names internTable) error {
	*r = tcpRequest{}
	var d wire.Decoder
	if err := d.Init(frame); err != nil {
		return err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.ID = d.Uint()
		case 2:
			r.Addr = names.get(d.Bytes())
		case 3:
			r.Method = names.get(d.Bytes())
		case 4:
			r.Principal = names.get(d.Bytes())
		case 5:
			r.Payload = d.Bytes()
		case 6:
			r.TraceID = d.Uint()
		case 7:
			r.Kind = names.get(d.Bytes())
		case 8:
			r.Attempt = d.Uint()
		}
	}
	return d.Err()
}

// internTable hands out one shared string per distinct byte string a
// connection's frames name — a handful of addrs, methods, principals and
// op kinds — so decoding them stops allocating once each has been seen.
// It is bounded in entries and in entry length; past either, get allocates
// like string(b).
type internTable map[string]string

func (t internTable) get(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t) < internEntries && len(s) <= internMaxLen {
		t[s] = s
	}
	return s
}

type tcpResponse struct {
	ID      uint64
	OK      bool
	Payload []byte
	Err     string
	TraceNs uint64
	// Spans (tag 6, additive) carry the call's per-layer attribution back
	// to the remote caller.
	Spans []fabric.Span
}

func (r *tcpResponse) encode(e *wire.Encoder) {
	e.Uint(1, r.ID)
	e.Bool(2, r.OK)
	e.Bytes(3, r.Payload)
	e.String(4, r.Err)
	e.Uint(5, r.TraceNs)
	trace.EncodeSpans(e, 6, r.Spans)
}

// decode parses frame in place: Payload aliases it, and the spans, at most
// trace.MaxWireSpans of them, land in spans' storage.
func (r *tcpResponse) decode(frame []byte, spans []fabric.Span) error {
	*r = tcpResponse{Spans: spans[:0]}
	var d wire.Decoder
	if err := d.Init(frame); err != nil {
		return err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.ID = d.Uint()
		case 2:
			r.OK = d.Bool()
		case 3:
			r.Payload = d.Bytes()
		case 4:
			r.Err = d.String()
		case 5:
			r.TraceNs = d.Uint()
		case 6:
			if len(r.Spans) < trace.MaxWireSpans {
				r.Spans = append(r.Spans, trace.DecodeSpan(d.Bytes()))
			}
		}
	}
	return d.Err()
}

// beginTCPFrame starts a message behind room for its length prefix in a
// connection's send scratch; the caller holds that connection's write lock
// until writeTCPFrame has sent the result.
func beginTCPFrame(scratch []byte) (e wire.Encoder) {
	e.InitAppend(scratch[:tcpPrefix])
	return e
}

// writeTCPFrame fills in frame's length prefix and sends prefix and message
// in one Write, leaving the storage in *scratch for the next frame. A
// failed or short write leaves the stream mis-framed for good: the caller
// must close the connection.
func writeTCPFrame(w io.Writer, scratch *[]byte, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-tcpPrefix))
	if cap(frame) <= maxSendScratch {
		*scratch = frame[:tcpPrefix]
	}
	n, err := w.Write(frame)
	if err == nil && n != len(frame) {
		err = io.ErrShortWrite
	}
	return err
}

// readTCPFrame reads one frame into dst's storage, or into a buffer of its
// own when dst lacks the room.
func readTCPFrame(br *bufio.Reader, dst []byte) ([]byte, error) {
	hdr, err := br.Peek(tcpPrefix)
	if err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	br.Discard(tcpPrefix)
	if n > maxTCPFrame {
		return nil, fmt.Errorf("rpc: tcp frame of %d bytes exceeds limit", n)
	}
	return wire.ReadFrameBody(dst, br, int(n))
}

// reusable returns b emptied for reuse, or nil past maxSendScratch.
func reusable(b []byte) []byte {
	if cap(b) > maxSendScratch {
		return nil
	}
	return b[:0]
}

// TCPGateway proxies socket connections into an in-process Network.
type TCPGateway struct {
	n       *Network
	ln      net.Listener
	hostID  int
	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup // one per live connection, released after its dispatchers
	accepts sync.WaitGroup
}

// ServeTCP listens on addr ("127.0.0.1:0" for an ephemeral port) and
// serves remote callers against n. Calls enter the fabric at hostID (the
// gateway's position in the cell).
func ServeTCP(n *Network, addr string, hostID int) (*TCPGateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serveListener(n, ln, hostID), nil
}

func serveListener(n *Network, ln net.Listener, hostID int) *TCPGateway {
	g := &TCPGateway{n: n, ln: ln, hostID: hostID, conns: make(map[net.Conn]struct{})}
	g.accepts.Add(1)
	go g.acceptLoop()
	return g
}

// Addr returns the gateway's listen address.
func (g *TCPGateway) Addr() string { return g.ln.Addr().String() }

// Close stops accepting and tears down live connections. It waits for the
// calls already dispatched to return.
func (g *TCPGateway) Close() error {
	g.mu.Lock()
	g.closed = true
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	err := g.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	g.accepts.Wait()
	g.wg.Wait()
	return err
}

func (g *TCPGateway) acceptLoop() {
	defer g.accepts.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.serveConn(conn)
	}
}

// gatewayConn is one accepted connection: the reader (serveConn's loop),
// the bounded dispatchers that run its calls, and the send scratch their
// responses share.
type gatewayConn struct {
	g    *TCPGateway
	conn net.Conn
	wmu  sync.Mutex // responses from concurrent dispatchers interleave
	send []byte     // under wmu
}

// gatewayCall is one call's record between the reader and a dispatcher:
// the request, decoded in place from the record's frame, the context node
// that carries the remote op's identity into the cell, and the storage the
// in-cell call appends its reply and spans to. Records are pooled; the
// dispatcher recycles one once its response has been written.
type gatewayCall struct {
	req   tcpRequest
	ctx   trace.OpContext
	frame []byte
	reply []byte
	spans []fabric.Span
}

var gatewayCalls = sync.Pool{New: func() any { return new(gatewayCall) }}

// workerPool is one connection's dispatchers: each call runs on its own so
// one slow handler does not head-of-line-block the calls pipelined behind it
// — up to tcpDispatchLimit of them, after which dispatch blocks, the reader
// stops reading, and TCP pushes back on the peer. Dispatchers are spawned
// lazily and parked between calls, so steady state costs a channel handoff
// and no goroutine creation (a fresh goroutine would re-grow its stack on
// every call).
type workerPool struct {
	tasks   chan *gatewayCall
	run     func(*gatewayCall)
	running int            // dispatchers spawned; the connection's reader alone dispatches
	wg      sync.WaitGroup // the dispatchers, for shutdown
}

// dispatch hands call to an idle dispatcher, spawning one if the pool is
// below its limit, else blocks until one frees up.
func (p *workerPool) dispatch(call *gatewayCall) {
	select {
	case p.tasks <- call:
		return
	default:
	}
	if p.running < tcpDispatchLimit {
		p.running++
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for call := range p.tasks {
				p.run(call)
			}
		}()
	}
	p.tasks <- call
}

// shutdown retires the pool once the reader has stopped dispatching: parked
// dispatchers exit at once, busy ones after the call in hand.
func (p *workerPool) shutdown() {
	close(p.tasks)
	p.wg.Wait()
}

func (g *TCPGateway) serveConn(conn net.Conn) {
	gc := &gatewayConn{g: g, conn: conn, send: make([]byte, tcpPrefix, 512)}
	pool := &workerPool{tasks: make(chan *gatewayCall), run: gc.run}
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		conn.Close() // before the wait: unblocks a dispatcher writing to a stalled peer
		pool.shutdown()
		g.wg.Done()
	}()
	br := bufio.NewReader(conn)
	names := make(internTable)
	for {
		call := gatewayCalls.Get().(*gatewayCall)
		frame, err := readTCPFrame(br, call.frame)
		if err != nil {
			return
		}
		call.frame = frame
		if err := call.req.decode(frame, names); err != nil {
			return
		}
		pool.dispatch(call)
	}
}

// run proxies one call into the cell and writes its response.
func (gc *gatewayConn) run(call *gatewayCall) {
	g, req := gc.g, &call.req
	caller := Client{n: g.n, hostID: g.hostID, principal: req.Principal}
	resp := tcpResponse{ID: req.ID}
	ctx := context.Background()
	var sc *trace.SpanContext
	if req.TraceID != 0 {
		// The remote caller's op identity crosses into the cell, so
		// in-cell layers (stripe locks, handlers) deposit spans
		// against it and the cell tracer sees remote traffic.
		sc = call.ctx.Init(ctx, trace.SpanContext{
			OpID:    req.TraceID,
			Kind:    trace.KindOf(req.Kind),
			Attempt: uint32(req.Attempt),
		})
		ctx = &call.ctx
	}
	payload, tr, cerr := caller.AppendCall(ctx, call.reply, call.spans, req.Addr, req.Method, req.Payload)
	resp.TraceNs = tr.Ns
	resp.Spans = tr.Spans
	if cerr != nil {
		resp.Err = cerr.Error()
	} else {
		resp.OK = true
		resp.Payload = payload
	}
	if sc != nil && cerr == nil {
		if t := g.n.Tracer(); t != nil {
			t.Record(sc.OpID, sc.Kind, trace.TransportRPC, sc.Attempt+1, tr)
		}
	}

	gc.wmu.Lock()
	e := beginTCPFrame(gc.send)
	resp.encode(&e)
	err := writeTCPFrame(gc.conn, &gc.send, e.Encoded())
	gc.wmu.Unlock()
	if err != nil {
		// The peer may hold half a frame and a caller without a deadline
		// would wait on the rest forever; closing fails its calls instead.
		gc.conn.Close()
	}
	// The record keeps its storage and nothing of the call.
	*call = gatewayCall{frame: reusable(call.frame), reply: reusable(payload), spans: tr.Spans[:0]}
	gatewayCalls.Put(call)
}

// TCPClient implements Caller over a gateway connection. Safe for
// concurrent use: calls are multiplexed by id.
type TCPClient struct {
	principal string

	conn net.Conn
	wmu  sync.Mutex // serializes frame writes
	send []byte     // under wmu

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*tcpCall
	closed  error
}

// tcpCall is a pending call's record. Whoever unregisters it (readLoop or
// failAll) copies the response into it and signals done, exactly once. A
// caller that gives up and unregisters it first owns it again, as one that
// received from done does, and recycles it, storage and all. One that finds
// it gone waits for the signal and takes the response that arrived, so a
// late response lands in the record, never in the caller's dst.
type tcpCall struct {
	done chan struct{}
	resp tcpResponse // its own copy
}

var tcpCalls = sync.Pool{New: func() any { return &tcpCall{done: make(chan struct{}, 1)} }}

func (t *tcpCall) fill(r *tcpResponse) {
	t.resp = tcpResponse{OK: r.OK, Err: r.Err, TraceNs: r.TraceNs,
		Payload: append(t.resp.Payload[:0], r.Payload...), Spans: append(t.resp.Spans[:0], r.Spans...)}
}

// DialTCP connects to a gateway.
func DialTCP(gatewayAddr, principal string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", gatewayAddr)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{
		principal: principal,
		conn:      conn,
		send:      make([]byte, tcpPrefix, 512),
		pending:   make(map[uint64]*tcpCall),
	}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; in-flight calls fail.
func (c *TCPClient) Close() error { return c.conn.Close() }

// readLoop reads every response into the connection's frame and spans and
// hands each to its call as a copy.
func (c *TCPClient) readLoop() {
	br := bufio.NewReader(c.conn)
	var frame []byte
	var resp tcpResponse
	for {
		var err error
		if frame, err = readTCPFrame(br, reusable(frame)); err != nil {
			c.failAll(fmt.Errorf("rpc: tcp connection lost: %w", err))
			return
		}
		if err := resp.decode(frame, resp.Spans); err != nil {
			c.failAll(fmt.Errorf("rpc: tcp protocol error: %w", err))
			return
		}
		if call := c.unregister(resp.ID); call != nil {
			call.fill(&resp)
			call.done <- struct{}{}
		}
	}
}

// unregister removes and returns id's pending call, nil if it is gone.
// Whoever gets the record owes it its one fill and signal.
func (c *TCPClient) unregister(id uint64) *tcpCall {
	c.mu.Lock()
	call := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return call
}

func (c *TCPClient) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = err
	for id, call := range c.pending {
		call.fill(&tcpResponse{ID: id, Err: err.Error()})
		call.done <- struct{}{}
		delete(c.pending, id)
	}
}

// Call implements Caller across the socket.
func (c *TCPClient) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	return c.AppendCall(ctx, nil, nil, addr, method, req)
}

// AppendCall implements Appender across the socket, copying the response
// out of the call's record.
func (c *TCPClient) AppendCall(ctx context.Context, dst []byte, spans []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	p := c.start(ctx, spans, addr, method, req)
	return p.Wait(dst)
}

// start sends one call (rpc.Start) and returns it in flight; Wait reads
// its response into the dst it is given then, and its spans into spans. A
// ctx that has already ended sends nothing, as an in-process call runs
// nothing.
func (c *TCPClient) start(ctx context.Context, spans []fabric.Span, addr, method string, req []byte) Pending {
	if ctx.Err() != nil {
		return Pending{err: ErrDeadlineExceeded}
	}
	call := tcpCalls.Get().(*tcpCall)
	c.mu.Lock()
	if c.closed != nil {
		err := c.closed
		c.mu.Unlock()
		tcpCalls.Put(call) // never registered: never signalled
		return Pending{err: err}
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = call
	c.mu.Unlock()

	r := tcpRequest{ID: id, Addr: addr, Method: method, Principal: c.principal, Payload: req}
	if sc := trace.FromContext(ctx); sc != nil {
		r.TraceID = sc.OpID
		r.Kind = sc.Kind.String()
		r.Attempt = uint64(sc.Attempt)
	} else {
		// Every frame carries a trace identity so ad-hoc remote calls
		// (cmstat, scripts) are attributable inside the cell too.
		r.TraceID = id
		r.Kind = methodKind(method).String()
	}
	c.wmu.Lock()
	e := beginTCPFrame(c.send)
	r.encode(&e)
	err := writeTCPFrame(c.conn, &c.send, e.Encoded())
	c.wmu.Unlock()
	if err != nil {
		// Nothing after half a frame can be framed: the connection is done,
		// and readLoop fails the other pending calls.
		c.conn.Close()
		if c.unregister(id) != nil {
			tcpCalls.Put(call)
		}
		return Pending{err: err}
	}
	return Pending{c: c, call: call, id: id, ctx: ctx, spans: spans}
}

// await collects call id's response into dst and spans and recycles its
// record, or gives up when ctx ends before the response arrives.
func (c *TCPClient) await(ctx context.Context, call *tcpCall, id uint64, dst []byte, spans []fabric.Span) ([]byte, fabric.OpTrace, error) {
	select {
	case <-call.done:
	default:
		select {
		case <-call.done:
		case <-ctx.Done():
			if c.unregister(id) != nil {
				tcpCalls.Put(call) // nobody else can reach it now
				return dst, fabric.OpTrace{}, ErrDeadlineExceeded
			}
			// readLoop or failAll took the record first and owes it its one
			// signal: the response is in.
			<-call.done
		}
	}
	tr := fabric.OpTrace{Ns: call.resp.TraceNs, Spans: append(spans, call.resp.Spans...)}
	var err error
	if call.resp.OK {
		dst = append(dst, call.resp.Payload...)
	} else {
		err = mapTCPError(call.resp.Err)
	}
	call.resp.Payload = reusable(call.resp.Payload)
	tcpCalls.Put(call)
	return dst, tr, err
}

// methodKind maps an RPC method name ("CliqueMap.Get") onto an op kind
// for trace attribution of ad-hoc remote calls.
func methodKind(method string) trace.Kind {
	if i := strings.LastIndexByte(method, '.'); i >= 0 {
		method = method[i+1:]
	}
	switch method {
	case "Get":
		return trace.KindGet
	case "Set":
		return trace.KindSet
	case "Erase":
		return trace.KindErase
	case "Cas":
		return trace.KindCas
	}
	return trace.KindOther
}

// mapTCPError restores the framework error classes that crossed the wire
// as strings, so remote callers can errors.Is them like local ones.
func mapTCPError(msg string) error {
	for _, known := range []error{ErrUnavailable, ErrNoSuchMethod, ErrUnauthenticated, ErrDeadlineExceeded} {
		if len(msg) >= len(known.Error()) && msg[:len(known.Error())] == known.Error() {
			return fmt.Errorf("%w (remote: %s)", known, msg)
		}
	}
	return errors.New(msg)
}
