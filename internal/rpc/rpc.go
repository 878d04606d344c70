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
// (conventionally internal/wire messages). ctx is the handler's only until
// it returns: the span sink in it, and behind the TCP gateway the context
// node itself, are recycled for the next call.
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
	pool     *workerPool[task] // bounded handler-execution pool

	sat satCounters // admission-queue saturation telemetry
}

// satCounters is the server's modelled admission-queue state: utilization
// is estimated from sampled arrival timing (one virtual-clock read per
// rhoSampleEvery calls) so per-call cost stays at one atomic add, and the
// M/M/c-ish queue wait derived from it is billed into each call's modelled
// latency. These counters survive SetWorkerLimit pool swaps.
type satCounters struct {
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
func (s *Server) admit(now func() uint64, serviceNs uint64, limit int32) uint64 {
	c := &s.sat
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

// workerPool runs tasks on a bounded set of persistent worker goroutines.
// It serves twice: as a server's request-processing thread pool (tasks
// are handler invocations, see submit) and as a TCP gateway connection's
// dispatchers (tasks are framed calls). Workers are spawned lazily up to
// limit and then parked between tasks, so steady-state dispatch costs a
// channel handoff and no goroutine creation (a fresh goroutine per call
// would re-grow its stack on every request — measurably dominant on the
// mutation hot path).
type workerPool[T any] struct {
	tasks   chan T
	run     func(T)
	limit   int32
	running atomic.Int32
	busy    atomic.Int32   // workers currently executing a task (gauge)
	wg      sync.WaitGroup // the workers, for shutdown

	// Occupancy telemetry for the wall side of the admission queue: both
	// are touched only on the at-limit path, so the uncontended fast path
	// pays nothing.
	queuedSubmits atomic.Uint64 // dispatches that waited for a worker at the pool limit
	submitWaitNs  atomic.Uint64 // cumulative measured wall-ns those dispatches waited
}

func newWorkerPool[T any](limit int, run func(T)) *workerPool[T] {
	if limit < 1 {
		limit = 1
	}
	return &workerPool[T]{tasks: make(chan T), run: run, limit: int32(limit)}
}

// dispatch hands t to a worker. When every worker is busy and the pool is
// at its limit, dispatch blocks — the pool is its owner's admission
// semaphore. It reports false, with t not run, when ctx expires first.
func (p *workerPool[T]) dispatch(ctx context.Context, t T) bool {
	select {
	case p.tasks <- t: // an idle worker took it
		return true
	default:
	}
	if n := p.running.Add(1); n <= p.limit {
		p.wg.Add(1)
		go p.worker()
		select {
		case p.tasks <- t:
			return true
		case <-ctx.Done():
			return false
		}
	}
	// At the pool limit with every worker busy: this dispatch is genuinely
	// queued, so the clock reads live only here.
	p.running.Add(-1)
	p.queuedSubmits.Add(1)
	t0 := time.Now()
	select {
	case p.tasks <- t:
		p.submitWaitNs.Add(uint64(time.Since(t0)))
		return true
	case <-ctx.Done():
		return false
	}
}

// worker serves tasks for the life of the pool, keeping its grown stack
// warm across requests.
func (p *workerPool[T]) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.busy.Add(1)
		p.run(t)
		p.busy.Add(-1)
	}
}

// shutdown retires the pool once its owner has stopped dispatching: parked
// workers exit at once, busy ones after the task in hand.
func (p *workerPool[T]) shutdown() {
	close(p.tasks)
	p.wg.Wait()
}

// task is one handler invocation on a server's pool.
type task struct {
	ctx       context.Context
	h         Handler
	principal string
	req       []byte
	done      chan taskResult
}

type taskResult struct {
	resp []byte
	err  error
}

func runTask(t task) {
	resp, err := t.h(t.ctx, t.principal, t.req)
	t.done <- taskResult{resp: resp, err: err}
}

// doneChans recycles single-use result channels across submits: a worker
// sends exactly one result and submit always receives it, so a channel is
// provably empty when returned to the pool.
var doneChans = sync.Pool{New: func() any { return make(chan taskResult, 1) }}

// submit runs h on one of p's workers and waits for the result. A context
// that expires while queued fails without running the handler; once
// admitted, handlers run to completion (a server does not abandon work
// mid-mutation).
func submit(ctx context.Context, p *workerPool[task], h Handler, principal string, req []byte) ([]byte, error) {
	done := doneChans.Get().(chan taskResult)
	if !p.dispatch(ctx, task{ctx: ctx, h: h, principal: principal, req: req, done: done}) {
		doneChans.Put(done)
		return nil, ErrDeadlineExceeded
	}
	r := <-done
	doneChans.Put(done)
	return r.resp, r.err
}

// Serve registers a server at addr on host hostID. Re-serving an address
// replaces the previous server (a restarted task).
func (n *Network) Serve(addr string, hostID int) *Server {
	s := &Server{
		n: n, addr: addr, hostID: hostID,
		handlers: make(map[string]Handler),
		costs:    make(map[string]uint64),
		pool:     newWorkerPool(DefaultWorkerLimit, runTask),
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

// SetWorkerLimit resizes the server's handler-concurrency bound by
// installing a fresh worker pool. Calls in flight under the old pool drain
// independently; new calls use the new one.
func (s *Server) SetWorkerLimit(limit int) {
	s.mu.Lock()
	s.pool = newWorkerPool(limit, runTask)
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
// saturation telemetry: how full the worker pool is (wall side) and how
// hard the modelled admission queue is pushing back (model side).
type Saturation struct {
	WorkerLimit   uint64 // pool size (gauge)
	WorkersBusy   uint64 // workers executing a handler right now (gauge)
	QueuedSubmits uint64 // submits that waited for a worker at the pool limit
	SubmitWaitNs  uint64 // cumulative measured wall-ns those submits waited
	Calls         uint64 // calls that reached dispatch on this server
	QueuedCalls   uint64 // calls billed a modelled admission-queue wait
	QueueNs       uint64 // cumulative modelled admission-queue ns billed
	RhoMilli      uint64 // smoothed modelled utilization ×1000 (gauge)
}

// Saturation snapshots the server's saturation counters. Pool-side
// counters reset when SetWorkerLimit installs a fresh pool; consumers
// (cmstat -watch) clamp deltas on restart.
func (s *Server) Saturation() Saturation {
	s.mu.Lock()
	pool := s.pool
	s.mu.Unlock()
	busy := pool.busy.Load()
	if busy < 0 {
		busy = 0
	}
	return Saturation{
		WorkerLimit:   uint64(pool.limit),
		WorkersBusy:   uint64(busy),
		QueuedSubmits: pool.queuedSubmits.Load(),
		SubmitWaitNs:  pool.submitWaitNs.Load(),
		Calls:         s.sat.arrivals.Load(),
		QueuedCalls:   s.sat.queuedCalls.Load(),
		QueueNs:       s.sat.queueNs.Load(),
		RhoMilli:      s.sat.rhoMilli.Load(),
	}
}

// Caller is the client-side calling surface — satisfied by the in-process
// Client and by the TCP gateway's remote client, so higher layers work
// over either.
type Caller interface {
	Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error)
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
	var tr fabric.OpTrace
	n := c.n

	if err := ctx.Err(); err != nil {
		return nil, tr, ErrDeadlineExceeded
	}

	// Span capture is armed only when the caller carries an op identity;
	// internal traffic (repairs, handshakes, touch batches) records no
	// spans and allocates nothing. Armed calls buffer spans on the stack
	// and materialize them in one exact-size allocation at exit.
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
	pool := s.pool
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
	// pool's capacity, calls wait for a worker before the handler runs.
	if qns := s.admit(n.f.NowNs, n.cost.ServerCPUNs+extra, pool.limit); qns > 0 {
		sb.add(&tr, trace.SpanRPCQueue, uint32(s.sat.rhoMilli.Load()), qns)
	}

	// Traced calls get a span sink so the handler can deposit measured
	// costs (stripe lock waits) back into this call's trace. Untraced
	// callers skip the context allocation entirely.
	hctx := ctx
	var sink *trace.SpanSink
	if sb.on {
		sink = trace.GetSink()
		hctx = trace.WithSink(ctx, sink)
	}

	// Dispatch the handler to the server's bounded worker pool. The caller
	// blocks for the response (RPCs are synchronous) but handlers for
	// different calls run on distinct worker goroutines, so mutations
	// against different lock stripes overlap inside one backend.
	resp, err := submit(hctx, pool, h, c.principal, req)
	var deposited []fabric.Span
	depositedAt := tr.Ns
	if sink != nil {
		deposited = sink.Take()
	}
	if err != nil {
		tr.Add(n.f.Host(c.hostID).Deliver(128))
		n.bytesSent.Add(128)
		sb.attach(&tr, deposited, depositedAt)
		if sink != nil {
			trace.PutSink(sink)
		}
		return nil, tr, err
	}

	// Response direction: the handler has already executed, so a cut here
	// yields the indeterminate outcome of §5 — the mutation may have
	// applied even though the caller sees a failure.
	if !n.f.Linked(hostID, c.hostID) {
		tr.Add(n.f.Host(c.hostID).Deliver(128))
		n.bytesSent.Add(128)
		sb.attach(&tr, deposited, depositedAt)
		if sink != nil {
			trace.PutSink(sink)
		}
		return nil, tr, fmt.Errorf("%w: %s (partitioned)", ErrUnavailable, addr)
	}

	// Response returns.
	sb.add(&tr, trace.SpanFabric, uint32(len(resp)+128), n.f.Host(c.hostID).Deliver(len(resp)+128))
	tr.AddBytes(len(resp) + 128)
	n.bytesSent.Add(uint64(len(resp) + 128))
	sb.attach(&tr, deposited, depositedAt)
	if sink != nil {
		trace.PutSink(sink)
	}

	if ctx.Err() != nil {
		return nil, tr, ErrDeadlineExceeded
	}
	return resp, tr, nil
}

// spanBuf stages a Call's framework spans on the stack so an armed call
// pays a single exact-size allocation and an unarmed call pays none.
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

// attach materializes the staged spans plus any handler-deposited spans
// (which annotate at the dispatch point rather than extending the path).
func (b *spanBuf) attach(tr *fabric.OpTrace, deposited []fabric.Span, at uint64) {
	if !b.on || b.n+len(deposited) == 0 {
		return
	}
	s := make([]fabric.Span, b.n, b.n+len(deposited))
	copy(s, b.buf[:b.n])
	for _, sp := range deposited {
		s = append(s, fabric.Span{Code: sp.Code, Arg: sp.Arg, Start: at, Dur: sp.Dur})
	}
	tr.Spans = s
}
