// Package rpc is the Stubby-like RPC framework CliqueMap leans on for
// everything that is not a common-case GET: mutations, eviction feedback,
// repairs, migration, configuration, and the WAN/RPC lookup fallback.
//
// The paper's framing (§1, §2.1): a production RPC framework buys
// authentication, versioning, ACLs, and multi-language interoperability at
// a cost of >50 CPU-µs per op across client and server — which is why the
// GET path bypasses it. This package reproduces both sides of that trade:
// it carries an authentication principal and version-tolerant payloads
// (internal/wire), and it bills a calibrated ~50µs of framework CPU per
// call so the efficiency comparisons (Figures 7, 18, 19 and the §3 claim)
// come out of measurement rather than assertion.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// DefaultWorkerLimit bounds concurrent handler executions per server — the
// modelled size of a production server's request-processing thread pool.
const DefaultWorkerLimit = 64

var (
	// ErrUnavailable reports a stopped/crashed server.
	ErrUnavailable = errors.New("rpc: server unavailable")
	// ErrNoSuchMethod reports an unregistered method.
	ErrNoSuchMethod = errors.New("rpc: no such method")
	// ErrUnauthenticated reports an ACL rejection.
	ErrUnauthenticated = errors.New("rpc: unauthenticated")
	// ErrDeadlineExceeded reports a call whose modelled latency exceeds
	// the context deadline budget.
	ErrDeadlineExceeded = errors.New("rpc: deadline exceeded")
)

// CostModel calibrates framework overheads.
type CostModel struct {
	ClientCPUNs uint64 // marshal, auth, channel management on the caller
	ServerCPUNs uint64 // dispatch, auth check, thread wakeup on the callee
	LatencyNs   uint64 // fixed framework latency beyond CPU and fabric RTT
}

// DefaultCostModel makes an empty RPC cost just over 50 CPU-µs across
// client and server — the paper's Stubby figure.
func DefaultCostModel() CostModel {
	return CostModel{ClientCPUNs: 23000, ServerCPUNs: 29000, LatencyNs: 18000}
}

// Handler serves one method. The request and response are opaque payloads
// (conventionally internal/wire messages). ctx and req are the handler's
// only until it returns: the span sink in ctx (which may lend it reply
// storage, trace.SpanSink.Reply), the TCP gateway's context node and frame
// are recycled for the next call.
type Handler func(ctx context.Context, principal string, req []byte) ([]byte, error)

// Authenticator decides whether principal may invoke method — the per-RPC
// ACL layer (ALTS analogue).
type Authenticator func(principal, method string) error

// Network binds servers and clients to fabric hosts.
type Network struct {
	f    *fabric.Fabric
	cost CostModel
	acct *stats.CPUAccount

	// Pre-resolved charging handles: Call bills these on every RPC, and
	// the zero Meter discards, so no nil-account branch on the hot path.
	clientMeter  stats.Meter
	serverMeter  stats.Meter
	handlerMeter stats.Meter

	mu      sync.Mutex
	servers map[string]*Server

	// tracer, when set, records ops that enter this network from outside
	// the cell (the TCP gateway) so remote traffic shows up in the cell's
	// telemetry plane alongside in-process clients.
	tracer atomic.Pointer[trace.Tracer]

	bytesSent stats.Counter
	calls     stats.Counter
}

// SetTracer installs the cell tracer used for remotely originated calls.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// Tracer returns the installed cell tracer, or nil.
func (n *Network) Tracer() *trace.Tracer { return n.tracer.Load() }

// NewNetwork creates an RPC network over f. acct may be nil.
func NewNetwork(f *fabric.Fabric, cost CostModel, acct *stats.CPUAccount) *Network {
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	n := &Network{f: f, cost: cost, acct: acct, servers: make(map[string]*Server)}
	if acct != nil {
		n.clientMeter = acct.Meter("rpc-client")
		n.serverMeter = acct.Meter("rpc-server")
		n.handlerMeter = acct.Meter("handler")
	}
	return n
}

// BytesSent returns cumulative RPC payload bytes (request + response) —
// the metric plotted in Figures 13/14.
func (n *Network) BytesSent() uint64 { return n.bytesSent.Value() }

// Calls returns the cumulative RPC count.
func (n *Network) Calls() uint64 { return n.calls.Value() }

// Server is one RPC endpoint bound to a fabric host.
type Server struct {
	n      *Network
	addr   string
	hostID int

	mu       sync.Mutex
	handlers map[string]Handler
	costs    map[string]uint64 // extra modelled handler CPU by method
	auth     Authenticator
	stopped  bool
	failRate float64
	failRng  *rand.Rand

	adm admission
}

// admission bounds a server's concurrent handler executions — the modelled
// size of its request-processing thread pool — and keeps both sides of the
// saturation telemetry. The wall side is a counting semaphore a call takes
// on its own goroutine; SetWorkerLimit swaps the channel and nothing else,
// so every counter here is cumulative for the server's life. The model
// side estimates utilization from sampled arrival timing (one virtual-clock
// read per rhoSampleEvery calls) so per-call cost stays at one atomic add,
// and bills the M/M/c-ish queue wait derived from it into each call's
// modelled latency.
type admission struct {
	slots chan struct{} // under Server.mu; cap is the limit, a send takes a slot

	// Touched only at the limit, so the uncontended path pays nothing.
	queuedSubmits atomic.Uint64 // calls that waited for a slot
	submitWaitNs  atomic.Uint64 // cumulative measured wall-ns those calls waited

	arrivals    atomic.Uint64 // calls that reached dispatch
	sampleAtNs  atomic.Uint64 // virtual instant of the previous rho sample
	rhoMilli    atomic.Uint64 // smoothed modelled utilization, ×1000 (gauge)
	queueNs     atomic.Uint64 // cumulative modelled admission-queue ns billed
	queuedCalls atomic.Uint64 // calls billed a nonzero modelled queue wait
}

// rhoSampleEvery sets how many arrivals share one utilization sample.
const rhoSampleEvery = 64

// admit returns the modelled admission-queue wait for one call whose
// handler occupies serviceNs of one of limit workers. Every
// rhoSampleEvery-th arrival refreshes the utilization estimate from the
// window's arrival rate (taking the sampling call's service time as
// representative) with 3:1 smoothing; QueueModel's 0.98 clamp bounds the
// worst-case billed wait at 49× the per-worker service share, so an
// unloaded server bills ~0 and existing latency figures are undisturbed.
func (c *admission) admit(now func() uint64, serviceNs uint64, limit int) uint64 {
	if c.arrivals.Add(1)%rhoSampleEvery == 0 {
		t := now()
		prev := c.sampleAtNs.Swap(t)
		if prev > 0 && t > prev {
			rate := float64(rhoSampleEvery) * 1e9 / float64(t-prev)
			inst := rate * float64(serviceNs) / 1e9 / float64(limit)
			old := float64(c.rhoMilli.Load()) / 1000
			c.rhoMilli.Store(uint64(fabric.Clamp01((3*old+inst)/4) * 1000))
		}
	}
	rho := float64(c.rhoMilli.Load()) / 1000
	if rho <= 0 {
		return 0
	}
	q := fabric.QueueModel(float64(serviceNs)/float64(limit), rho)
	if q > 0 {
		c.queueNs.Add(q)
		c.queuedCalls.Add(1)
	}
	return q
}

// run executes h on the caller's goroutine under one of slots. At the limit
// the call queues for a slot; a context that expires while queued fails
// without running the handler. Once admitted, a handler runs to completion
// (a server does not abandon work mid-mutation).
func (c *admission) run(ctx context.Context, slots chan struct{}, h Handler, principal string, req []byte) ([]byte, error) {
	select {
	case slots <- struct{}{}:
	default:
		// Genuinely queued, so the clock reads live only here.
		c.queuedSubmits.Add(1)
		t0 := time.Now()
		select {
		case slots <- struct{}{}:
			c.submitWaitNs.Add(uint64(time.Since(t0)))
		case <-ctx.Done():
			return nil, ErrDeadlineExceeded
		}
	}
	defer func() { <-slots }()
	return h(ctx, principal, req)
}

// Serve registers a server at addr on host hostID. Re-serving an address
// replaces the previous server (a restarted task).
func (n *Network) Serve(addr string, hostID int) *Server {
	s := &Server{
		n: n, addr: addr, hostID: hostID,
		handlers: make(map[string]Handler),
		costs:    make(map[string]uint64),
		adm:      admission{slots: make(chan struct{}, DefaultWorkerLimit)},
	}
	n.mu.Lock()
	n.servers[addr] = s
	n.mu.Unlock()
	return s
}

// Lookup returns the live server at addr, if any.
func (n *Network) lookup(addr string) (*Server, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.servers[addr]
	return s, ok
}

// Handle registers h for method.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

// SetMethodCost attaches a modelled CPU cost (ns) billed per invocation of
// method, on top of the framework cost.
func (s *Server) SetMethodCost(method string, ns uint64) {
	s.mu.Lock()
	s.costs[method] = ns
	s.mu.Unlock()
}

// SetWorkerLimit resizes the server's handler-concurrency bound. Calls in
// flight hold (and calls already queued wait for) slots of the old bound
// and drain independently; new calls take slots of the new one.
func (s *Server) SetWorkerLimit(limit int) {
	slots := make(chan struct{}, max(limit, 1))
	s.mu.Lock()
	s.adm.slots = slots
	s.mu.Unlock()
}

// SetAuthenticator installs an ACL check.
func (s *Server) SetAuthenticator(a Authenticator) {
	s.mu.Lock()
	s.auth = a
	s.mu.Unlock()
}

// SetFailRate makes the server spuriously fail the given fraction of
// calls with ErrUnavailable — the transient RPC failures §5.4 lists among
// the sources of dirty quorums. seed makes the drops reproducible.
//
// This is the leaf actuator behind the internal/chaos plane's RPCFailRate
// hazard; prefer driving it through the plane so every injection shares
// one master seed and shows up in the hazard counters.
func (s *Server) SetFailRate(rate float64, seed int64) {
	s.mu.Lock()
	s.failRate = rate
	s.failRng = rand.New(rand.NewSource(seed))
	s.mu.Unlock()
}

// Stop simulates a crash or planned shutdown: in-flight and future calls
// fail with ErrUnavailable.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Start brings a stopped server back (restarted task).
func (s *Server) Start() {
	s.mu.Lock()
	s.stopped = false
	s.mu.Unlock()
}

// Stopped reports whether the server is down.
func (s *Server) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// Addr returns the server's address.
func (s *Server) Addr() string { return s.addr }

// Saturation is a point-in-time snapshot of one server's admission-side
// saturation telemetry: how many handlers are running against the limit
// (wall side) and how hard the modelled admission queue is pushing back
// (model side).
type Saturation struct {
	WorkerLimit   uint64 // handler-concurrency bound (gauge)
	WorkersBusy   uint64 // handlers running right now (gauge)
	QueuedSubmits uint64 // calls that waited for a slot at the limit
	SubmitWaitNs  uint64 // cumulative measured wall-ns those calls waited
	Calls         uint64 // calls that reached dispatch on this server
	QueuedCalls   uint64 // calls billed a modelled admission-queue wait
	QueueNs       uint64 // cumulative modelled admission-queue ns billed
	RhoMilli      uint64 // smoothed modelled utilization ×1000 (gauge)
}

// Saturation snapshots the server's saturation counters. Everything but the
// two gauges is cumulative for the server's life.
func (s *Server) Saturation() Saturation {
	s.mu.Lock()
	slots := s.adm.slots
	s.mu.Unlock()
	return Saturation{
		WorkerLimit:   uint64(cap(slots)),
		WorkersBusy:   uint64(len(slots)),
		QueuedSubmits: s.adm.queuedSubmits.Load(),
		SubmitWaitNs:  s.adm.submitWaitNs.Load(),
		Calls:         s.adm.arrivals.Load(),
		QueuedCalls:   s.adm.queuedCalls.Load(),
		QueueNs:       s.adm.queueNs.Load(),
		RhoMilli:      s.adm.rhoMilli.Load(),
	}
}

// Caller is the client-side calling surface — satisfied by the in-process
// Client and by the TCP gateway's remote client, so higher layers work
// over either.
type Caller interface {
	Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error)
}

// Appender is Caller's call on the caller's storage: the response comes
// back as append(dst, …) and the spans as append(spans, …); on error dst
// comes back unchanged. dst's spare capacity may be written either way, so
// req must not live there.
type Appender interface {
	AppendCall(ctx context.Context, dst []byte, spans []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error)
}

// Appending returns c's append form, or, for a c without one (a decorator
// that wraps only Caller), its Call behind it, as nic.Appending does.
func Appending(c Caller) Appender {
	if a, ok := c.(Appender); ok {
		return a
	}
	return oldForm{c}
}

type oldForm struct{ Caller }

func (o oldForm) AppendCall(ctx context.Context, _ []byte, _ []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	return o.Call(ctx, addr, method, req)
}

// Client issues calls from a particular fabric host under a principal.
type Client struct {
	n         *Network
	hostID    int
	principal string
}

// Client binds a caller to host hostID with the given identity.
func (n *Network) Client(hostID int, principal string) *Client {
	return &Client{n: n, hostID: hostID, principal: principal}
}

// Call invokes method at addr. The returned OpTrace carries the modelled
// latency: framework fixed costs + fabric RTT (request and response sized
// by the payloads) + any per-method handler cost. If ctx carries a
// deadline whose remaining budget is below the modelled latency, Call
// fails with ErrDeadlineExceeded (the handler is not run).
func (c *Client) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	return c.call(ctx, nil, nil, addr, method, req)
}

// AppendCall is Call on the caller's storage (Appender). A traced call,
// or one whose ctx has a free op-node sink slot, lends the handler dst's
// free tail, so a response appended there is in place already.
func (c *Client) AppendCall(ctx context.Context, dst []byte, spans []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	resp, tr, err := c.call(ctx, dst[len(dst):], spans, addr, method, req)
	if err != nil {
		return dst, tr, err
	}
	return append(dst, resp...), tr, nil
}

// call lends reply to the handler (see AppendCall), appends the spans to
// spans, and returns the handler's response.
func (c *Client) call(ctx context.Context, reply []byte, spans []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	tr := fabric.OpTrace{Spans: spans}
	n := c.n

	if err := ctx.Err(); err != nil {
		return nil, tr, ErrDeadlineExceeded
	}

	// Span capture is armed only when the caller carries an op identity;
	// internal traffic (repairs, handshakes, touch batches) records no
	// spans and allocates nothing. Armed calls stage spans on the stack and
	// append them to the caller's at exit.
	sb := spanBuf{on: trace.FromContext(ctx) != nil}

	// Client-side framework CPU.
	n.clientMeter.Charge(n.cost.ClientCPUNs)
	sb.add(&tr, trace.SpanRPCClient, 0, n.cost.ClientCPUNs+n.cost.LatencyNs/2)

	s, ok := n.lookup(addr)
	if !ok {
		return nil, tr, fmt.Errorf("%w: %s", ErrUnavailable, addr)
	}

	s.mu.Lock()
	stopped := s.stopped
	h := s.handlers[method]
	extra := s.costs[method]
	auth := s.auth
	hostID := s.hostID
	slots := s.adm.slots
	dropped := s.failRate > 0 && s.failRng != nil && s.failRng.Float64() < s.failRate
	s.mu.Unlock()

	// Request crosses the fabric.
	sb.add(&tr, trace.SpanFabric, uint32(len(req)+128), n.f.Host(hostID).Deliver(len(req)+128))
	tr.AddBytes(len(req) + 128)
	n.bytesSent.Add(uint64(len(req) + 128))
	n.calls.Inc()

	if stopped {
		return nil, tr, fmt.Errorf("%w: %s", ErrUnavailable, addr)
	}
	if dropped {
		return nil, tr, fmt.Errorf("%w: %s (transient)", ErrUnavailable, addr)
	}
	// A partitioned (or lossy) request link drops the call before the
	// handler runs; the response direction is checked separately below, so
	// an asymmetric cut can fail a call whose side effects persisted.
	if !n.f.Linked(c.hostID, hostID) {
		return nil, tr, fmt.Errorf("%w: %s (partitioned)", ErrUnavailable, addr)
	}
	if auth != nil {
		if err := auth(c.principal, method); err != nil {
			return nil, tr, fmt.Errorf("%w: %v", ErrUnauthenticated, err)
		}
	}
	if h == nil {
		return nil, tr, fmt.Errorf("%w: %s %s", ErrNoSuchMethod, addr, method)
	}

	// Server-side framework + handler CPU.
	n.serverMeter.Charge(n.cost.ServerCPUNs)
	if extra > 0 {
		n.handlerMeter.ChargeOnly(extra)
	}
	sb.add(&tr, trace.SpanRPCServer, uint32(extra), n.cost.ServerCPUNs+n.cost.LatencyNs/2+extra)

	// Modelled admission queue: as offered load approaches the worker
	// limit, calls wait for a worker before the handler runs.
	if qns := s.adm.admit(n.f.NowNs, n.cost.ServerCPUNs+extra, cap(slots)); qns > 0 {
		sb.add(&tr, trace.SpanRPCQueue, uint32(s.adm.rhoMilli.Load()), qns)
	}

	// A traced call gets a span sink that lends the handler reply and takes
	// back measured costs (stripe lock waits); it rides the op's own context
	// node unless a concurrent or nested leg of the op holds that slot. An
	// untraced call gets one only to lend reply into a free slot.
	hctx := ctx
	var sink *trace.SpanSink
	var slot *trace.OpContext
	if sb.on || cap(reply) > 0 && trace.Slotted(ctx) {
		sink = trace.GetSink()
		sink.Lend(reply)
		hctx, slot = trace.AttachSink(ctx, sink)
	}

	// The handler runs here, on the caller's goroutine (RPCs are
	// synchronous); concurrent callers are distinct goroutines, so mutations
	// against different lock stripes overlap inside one backend.
	resp, err := s.adm.run(hctx, slots, h, c.principal, req)
	if slot != nil {
		slot.ReleaseSink()
	}
	depositedAt := tr.Ns

	// Response direction: the handler has already executed, so a cut here
	// yields the indeterminate outcome of §5 — the mutation may have
	// applied even though the caller sees a failure.
	if err == nil && !n.f.Linked(hostID, c.hostID) {
		err = fmt.Errorf("%w: %s (partitioned)", ErrUnavailable, addr)
	}

	// Response returns; a failure travels as a bare header and is not part
	// of the op's payload accounting.
	if err != nil {
		resp = nil
		tr.Add(n.f.Host(c.hostID).Deliver(128))
	} else {
		sb.add(&tr, trace.SpanFabric, uint32(len(resp)+128), n.f.Host(c.hostID).Deliver(len(resp)+128))
		tr.AddBytes(len(resp) + 128)
	}
	n.bytesSent.Add(uint64(len(resp) + 128))
	if sink != nil { // else nothing is armed and there is nothing to attach
		sb.attach(&tr, sink.Take(), depositedAt)
		trace.PutSink(sink)
	}

	if err == nil && ctx.Err() != nil {
		err = ErrDeadlineExceeded
	}
	if err != nil {
		return nil, tr, err
	}
	return resp, tr, nil
}

// spanBuf stages a call's framework spans on the stack, at most four of
// them, so that a call failing before its handler reports none.
type spanBuf struct {
	on  bool
	n   int
	buf [4]fabric.Span
}

func (b *spanBuf) add(tr *fabric.OpTrace, code uint16, arg uint32, ns uint64) {
	if b.on && b.n < len(b.buf) {
		b.buf[b.n] = fabric.Span{Code: code, Arg: arg, Start: tr.Ns, Dur: ns}
		b.n++
	}
	tr.Add(ns)
}

// attach appends the staged spans plus any handler-deposited spans (which
// annotate at the dispatch point rather than extending the path).
func (b *spanBuf) attach(tr *fabric.OpTrace, deposited []fabric.Span, at uint64) {
	if !b.on || b.n+len(deposited) == 0 {
		return
	}
	s := append(slices.Grow(tr.Spans, b.n+len(deposited)), b.buf[:b.n]...)
	for _, sp := range deposited {
		s = append(s, fabric.Span{Code: sp.Code, Arg: sp.Arg, Start: at, Dur: sp.Dur})
	}
	tr.Spans = s
}
