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

// maxTCPFrame bounds a frame (fail-closed against corrupt prefixes).
const maxTCPFrame = 64 << 20

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

func (r tcpRequest) marshal() []byte {
	e := wire.NewEncoder()
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
	return e.Encoded()
}

func unmarshalTCPRequest(b []byte) (tcpRequest, error) {
	var r tcpRequest
	d, err := wire.NewDecoder(b)
	if err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.ID = d.Uint()
		case 2:
			r.Addr = d.String()
		case 3:
			r.Method = d.String()
		case 4:
			r.Principal = d.String()
		case 5:
			r.Payload = append([]byte(nil), d.Bytes()...)
		case 6:
			r.TraceID = d.Uint()
		case 7:
			r.Kind = d.String()
		case 8:
			r.Attempt = d.Uint()
		}
	}
	return r, d.Err()
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

func (r tcpResponse) marshal() []byte {
	e := wire.NewEncoder()
	e.Uint(1, r.ID)
	e.Bool(2, r.OK)
	e.Bytes(3, r.Payload)
	e.String(4, r.Err)
	e.Uint(5, r.TraceNs)
	trace.EncodeSpans(e, 6, r.Spans)
	return e.Encoded()
}

func unmarshalTCPResponse(b []byte) (tcpResponse, error) {
	var r tcpResponse
	d, err := wire.NewDecoder(b)
	if err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.ID = d.Uint()
		case 2:
			r.OK = d.Bool()
		case 3:
			r.Payload = append([]byte(nil), d.Bytes()...)
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
	return r, d.Err()
}

func writeTCPFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readTCPFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxTCPFrame {
		return nil, fmt.Errorf("rpc: tcp frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// TCPGateway proxies socket connections into an in-process Network.
type TCPGateway struct {
	n       *Network
	ln      net.Listener
	hostID  int
	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
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
	g := &TCPGateway{n: n, ln: ln, hostID: hostID, conns: make(map[net.Conn]struct{})}
	g.accepts.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the gateway's listen address.
func (g *TCPGateway) Addr() string { return g.ln.Addr().String() }

// Close stops accepting and tears down live connections.
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

func (g *TCPGateway) serveConn(conn net.Conn) {
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		conn.Close()
		g.wg.Done()
	}()
	br := bufio.NewReader(conn)
	var wmu sync.Mutex // responses from concurrent handlers interleave
	for {
		frame, err := readTCPFrame(br)
		if err != nil {
			return
		}
		req, err := unmarshalTCPRequest(frame)
		if err != nil {
			return
		}
		// Each call runs in its own goroutine so one slow handler does
		// not head-of-line-block the connection.
		g.wg.Add(1)
		go func(req tcpRequest) {
			defer g.wg.Done()
			caller := g.n.Client(g.hostID, req.Principal)
			resp := tcpResponse{ID: req.ID}
			ctx := context.Background()
			var sc *trace.SpanContext
			if req.TraceID != 0 {
				// The remote caller's op identity crosses into the cell, so
				// in-cell layers (stripe locks, handlers) deposit spans
				// against it and the cell tracer sees remote traffic.
				ctx, sc = trace.NewContext(ctx, trace.SpanContext{
					OpID:    req.TraceID,
					Kind:    trace.KindOf(req.Kind),
					Attempt: uint32(req.Attempt),
				})
			}
			payload, tr, cerr := caller.Call(ctx, req.Addr, req.Method, req.Payload)
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
			wmu.Lock()
			defer wmu.Unlock()
			writeTCPFrame(conn, resp.marshal())
		}(req)
	}
}

// TCPClient implements Caller over a gateway connection. Safe for
// concurrent use: calls are multiplexed by id.
type TCPClient struct {
	principal string

	conn net.Conn
	wmu  sync.Mutex // serializes frame writes
	bw   *bufio.Writer

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan tcpResponse
	closed  error
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
		bw:        bufio.NewWriter(conn),
		pending:   make(map[uint64]chan tcpResponse),
	}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; in-flight calls fail.
func (c *TCPClient) Close() error { return c.conn.Close() }

func (c *TCPClient) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		frame, err := readTCPFrame(br)
		if err != nil {
			c.failAll(fmt.Errorf("rpc: tcp connection lost: %w", err))
			return
		}
		resp, err := unmarshalTCPResponse(frame)
		if err != nil {
			c.failAll(fmt.Errorf("rpc: tcp protocol error: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *TCPClient) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = err
	for id, ch := range c.pending {
		ch <- tcpResponse{ID: id, Err: err.Error()}
		delete(c.pending, id)
	}
}

// Call implements Caller across the socket.
func (c *TCPClient) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	c.mu.Lock()
	if c.closed != nil {
		err := c.closed
		c.mu.Unlock()
		return nil, fabric.OpTrace{}, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan tcpResponse, 1)
	c.pending[id] = ch
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
	err := writeTCPFrame(c.bw, r.marshal())
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fabric.OpTrace{}, err
	}

	select {
	case resp := <-ch:
		tr := fabric.OpTrace{Ns: resp.TraceNs, Spans: resp.Spans}
		if !resp.OK {
			return nil, tr, mapTCPError(resp.Err)
		}
		return resp.Payload, tr, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fabric.OpTrace{}, ErrDeadlineExceeded
	}
}

// methodKind maps an RPC method name ("CliqueMap.Get") onto an op kind
// for trace attribution of ad-hoc remote calls.
func methodKind(method string) trace.Kind {
	if i := strings.LastIndexByte(method, '.'); i >= 0 {
		method = method[i+1:]
	}
	switch method {
	case "Get", "GetBatch":
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
