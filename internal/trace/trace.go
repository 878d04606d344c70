// Package trace is CliqueMap's always-on, low-overhead operation tracing
// plane. Every client op carries a span context (op id, kind, transport,
// attempt #) through context.Context and the RPC wire frames; each layer
// it crosses — client quorum assembly, the RPC framework, backend stripe
// locks, the Pony Express / 1RMA NIC models — attributes its share of the
// latency as fabric.Spans riding on the op's fabric.OpTrace. Completed
// ops are recorded into a per-cell Tracer: per-kind × per-transport
// latency histograms, reservoir-sampled exemplars per kind, and a
// retained log of slow ops (latency above a rolling p99-derived
// threshold). The records a Snapshot returns carry their own wire tags —
// they are the MethodDebug payload as declared here — and every table and
// exposition page is rendered from that scrape (internal/fleet).
package trace

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
)

// Span codes: the layer/event namespace for fabric.Span.Code. Codes are
// append-only; remote tooling receives them numerically and names them
// via CodeName.
const (
	SpanIndexFetch    uint16 = 1  // client: index-lookup phase (fastest leg); Arg = live legs
	SpanQuorumWait    uint16 = 2  // client: extra wait for the k-th quorum leg; Arg = k
	SpanDataRead      uint16 = 3  // client: dependent data fetch; Arg = shard
	SpanRetry         uint16 = 4  // client: a failed attempt; Arg = attempt #
	SpanRPCClient     uint16 = 5  // rpc: client-side framework CPU + fixed latency
	SpanRPCServer     uint16 = 6  // rpc: server-side framework + handler CPU
	SpanFabric        uint16 = 7  // fabric delivery leg; Arg = bytes
	SpanStripeWait    uint16 = 8  // backend: measured wall-ns wait on a contended stripe lock
	SpanEngineIssue   uint16 = 9  // NIC: initiating engine issue (service + queue)
	SpanEngineService uint16 = 10 // NIC: serving engine service (scan/read/payload); Arg = bytes
	SpanEngineRecv    uint16 = 11 // NIC: initiating engine receive
	SpanMsgWakeup     uint16 = 12 // pony MSG: server thread wakeup + handler
	SpanHWService     uint16 = 13 // 1rma: hardware fabric + PCIe command time
	SpanCStateWake    uint16 = 14 // 1rma: C-state wake penalty after idle
	SpanBackoff       uint16 = 15 // client: capped exponential backoff before a retry; Arg = attempt #
	SpanTierRoute     uint16 = 17 // tier: one routing decision; Arg = tier-level attempt #
	SpanRingLookup    uint16 = 18 // tier: weighted-ring owner resolution; Arg = ring version (low 32 bits)
	SpanTierForward   uint16 = 19 // tier: op forwarded to a remote owner cell; Arg = owner cell index
	SpanRPCQueue      uint16 = 22 // rpc: modelled admission-queue wait at a loaded server; Arg = utilization ‰

	// Code 16 (hedge) is retired with the client's hedged data read, and
	// codes 20 (follower-cache-hit) and 21 (follower-revalidate) with the
	// tier's follower cache. Spans cross the TCP wire, so they are never
	// reused: an old peer's span renders as span-16/20/21.
)

// CodeName names a span code for display; unknown codes render
// numerically so old tools survive new codes.
func CodeName(c uint16) string {
	switch c {
	case SpanIndexFetch:
		return "index-fetch"
	case SpanQuorumWait:
		return "quorum-wait"
	case SpanDataRead:
		return "data-read"
	case SpanRetry:
		return "retry"
	case SpanRPCClient:
		return "rpc-client"
	case SpanRPCServer:
		return "rpc-server"
	case SpanFabric:
		return "fabric"
	case SpanStripeWait:
		return "stripe-wait"
	case SpanEngineIssue:
		return "engine-issue"
	case SpanEngineService:
		return "engine-service"
	case SpanEngineRecv:
		return "engine-recv"
	case SpanMsgWakeup:
		return "msg-wakeup"
	case SpanHWService:
		return "hw-service"
	case SpanCStateWake:
		return "cstate-wake"
	case SpanBackoff:
		return "backoff"
	case SpanTierRoute:
		return "tier-route"
	case SpanRingLookup:
		return "ring-lookup"
	case SpanTierForward:
		return "tier-forward"
	case SpanRPCQueue:
		return "rpc-queue"
	}
	return fmt.Sprintf("span-%d", c)
}

// Kind classifies an operation.
type Kind uint8

const (
	KindGet Kind = iota
	KindSet
	KindErase
	KindCas
	KindOther
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindGet:
		return "GET"
	case KindSet:
		return "SET"
	case KindErase:
		return "ERASE"
	case KindCas:
		return "CAS"
	}
	return "OTHER"
}

// KindOf parses a kind name (the inverse of String); unknown names map
// to KindOther.
func KindOf(s string) Kind {
	switch s {
	case "GET":
		return KindGet
	case "SET":
		return KindSet
	case "ERASE":
		return KindErase
	case "CAS":
		return KindCas
	}
	return KindOther
}

// Transport classifies the path an op took — the paper's lookup-strategy
// axis (Figure 7) plus the RPC mutation path.
type Transport uint8

const (
	Transport2xR Transport = iota
	TransportSCAR
	TransportMSG
	TransportRPC
	numTransports
)

// String names the transport as the paper does.
func (t Transport) String() string {
	switch t {
	case Transport2xR:
		return "2xR"
	case TransportSCAR:
		return "SCAR"
	case TransportMSG:
		return "MSG"
	}
	return "RPC"
}

// SpanContext identifies one in-flight op as it crosses layers. The
// client creates one per op and carries it in the context; the TCP
// gateway reconstructs one from the wire frame's trace fields so remote
// ops stay attributable inside the cell.
type SpanContext struct {
	OpID    uint64
	Kind    Kind
	Attempt uint32
}

type ctxKey int

const (
	spanContextKey ctxKey = iota
	sinkKey
	opContextKey
)

// OpContext is a context node that carries its SpanContext by value, so
// opening an op costs one allocation, not a SpanContext plus a
// context.WithValue node — and none at all for a caller that owns the
// node's storage (an OpLease, a TCP gateway call record) and re-arms it
// with Init. It also has the op's one sink slot, which AttachSink fills
// for the RPC leg whose handler is running. Armed with OpID 0 it carries
// no span context, only the slot, to lend a handler reply storage.
type OpContext struct {
	context.Context
	sc   SpanContext
	sink atomic.Pointer[SpanSink]
}

func (c *OpContext) Value(key any) any {
	switch key {
	case any(spanContextKey):
		if c.sc.OpID != 0 {
			return &c.sc
		}
	case any(opContextKey):
		return c
	case any(sinkKey):
		if s := c.sink.Load(); s != nil {
			return s
		}
	}
	return c.Context.Value(key)
}

// Init arms c as a child of parent carrying sc, and returns the attached
// copy that FromContext hands every layer below (the opener updates Attempt
// through it). Everything handed c must be done with it before the next Init.
func (c *OpContext) Init(parent context.Context, sc SpanContext) *SpanContext {
	c.Context, c.sc = parent, sc
	return &c.sc
}

// OpLease is one op's leased record: its context node, span buffer, and the
// storage its requests are marshalled into and its legs read into. The op
// takes it at entry and puts it back on return, so nothing below may keep
// any of it: a handler's ctx and req are its own until it returns, the
// Tracer copies, and a value leaves Recv as a copy.
type OpLease struct {
	OpContext
	Spans [16]fabric.Span // a quiet 2×R GET, the longest client trace, is 15

	// The receive arena, and span slots for eight legs: a near-cache
	// round, a fan-out of three, a data leg and one failover.
	Recv  []byte
	slots [8 * legSpans]fabric.Span
	used  int // slots handed out
}

// legSpans is one leg's span room: issue, service and receive, and a 1RMA
// C-state wake; an RPC leg's four framework spans.
const legSpans = 4

// MaxRecv bounds a lease's receive arena: a SCAR GET of a 16 KiB value
// (~52 KiB) keeps one; a larger GET's legs past it read into their own.
const MaxRecv = 256 << 10

// Leg hands one NIC or RPC leg its storage: the arena's free tail, and
// spans capped at legSpans so that no leg's append reaches another's (a
// fresh slice once a retrying op has used the storage up).
func (l *OpLease) Leg() ([]byte, []fabric.Span) {
	if l.used == len(l.slots) {
		return l.Free(), make([]fabric.Span, 0, legSpans)
	}
	l.used += legSpans
	return l.Free(), l.slots[l.used-legSpans : l.used-legSpans : l.used]
}

// Free is the arena's free tail. Keep records a message the op appended
// there as its own and caps it, so that no leg's append reaches it.
func (l *OpLease) Free() []byte { return l.Recv[len(l.Recv):] }

func (l *OpLease) Keep(msg []byte) []byte {
	l.Received(len(msg))
	return msg[:len(msg):len(msg)]
}

// Received records a leg's n-byte response. One that fit is in the tail Leg
// handed out; one that did not read into its own buffer, and the arena
// regrows, up to MaxRecv, for later legs (earlier views keep the old one).
func (l *OpLease) Received(n int) {
	if n <= cap(l.Recv)-len(l.Recv) {
		l.Recv = l.Recv[:len(l.Recv)+n]
	} else if c := min(2*cap(l.Recv)+n, MaxRecv); c > cap(l.Recv) {
		l.Recv = make([]byte, 0, c)
	}
}

// Leases is a client's spare op record, swapped atomically: unlike a pool's
// per-P slot, an op resumed on another P sees it. A concurrent op allocates.
type Leases struct{ spare atomic.Pointer[OpLease] }

// Take leases a record.
func (s *Leases) Take() *OpLease {
	if l := s.spare.Swap(nil); l != nil {
		return l
	}
	return new(OpLease)
}

// Put returns a record once its op, and all the op handed it to, are done.
func (s *Leases) Put(l *OpLease) {
	l.Context = nil // keep nothing of the caller's alive
	l.Recv, l.used = l.Recv[:0], 0
	s.spare.Store(l)
}

// FromContext returns the span context attached to ctx, or nil.
func FromContext(ctx context.Context) *SpanContext {
	sc, _ := ctx.Value(spanContextKey).(*SpanContext)
	return sc
}

// SpanSink collects spans recorded by a handler goroutine on behalf of
// the RPC layer: the framework plants a sink in the handler's context,
// the backend deposits measured costs (stripe lock waits), and the
// framework folds them into the call's OpTrace. One goroutine writes at
// a time; the framework reads only after the handler returns.
type SpanSink struct {
	spans []fabric.Span
	reply []byte
}

// Lend lends the handler the caller's storage for its response. Reply is
// that storage, for the handler to append its response to (nil without a
// sink).
func (s *SpanSink) Lend(reply []byte) { s.reply = reply }

func (s *SpanSink) Reply() []byte {
	if s == nil {
		return nil
	}
	return s.reply
}

// Annotate deposits one span. Start offsets are resolved by the RPC
// layer when folding, so callers pass only code/arg/duration.
func (s *SpanSink) Annotate(code uint16, arg uint32, dur uint64) {
	s.spans = append(s.spans, fabric.Span{Code: code, Arg: arg, Dur: dur})
}

// Take returns the deposited spans.
func (s *SpanSink) Take() []fabric.Span { return s.spans }

var sinkPool = sync.Pool{New: func() any { return &SpanSink{} }}

// GetSink leases a sink from the shared pool.
func GetSink() *SpanSink { return sinkPool.Get().(*SpanSink) }

// PutSink returns a sink to the pool.
func PutSink(s *SpanSink) {
	s.spans, s.reply = s.spans[:0], nil
	sinkPool.Put(s)
}

// Slotted reports whether AttachSink can take a slot of ctx's op node.
func Slotted(ctx context.Context) bool {
	oc, _ := ctx.Value(opContextKey).(*OpContext)
	return oc != nil && SinkFrom(ctx) == nil
}

// AttachSink attaches s to ctx for the handler side of one call. It goes
// in the sink slot of ctx's op node when that is free, and the caller owes
// the returned node a ReleaseSink once the handler is back. The slot is
// claimed, never assumed: an op's legs (a tier edge's cell legs) and a
// handler's own nested calls share the one node, so a call that finds
// a sink already visible from ctx — or no op node — gets a context node of
// its own and a nil slot.
func AttachSink(ctx context.Context, s *SpanSink) (context.Context, *OpContext) {
	if SinkFrom(ctx) == nil {
		if oc, _ := ctx.Value(opContextKey).(*OpContext); oc != nil && oc.sink.CompareAndSwap(nil, s) {
			return ctx, oc
		}
	}
	return context.WithValue(ctx, sinkKey, s), nil
}

// ReleaseSink frees the slot AttachSink took.
func (c *OpContext) ReleaseSink() { c.sink.Store(nil) }

// SinkFrom returns the sink attached to ctx, or nil.
func SinkFrom(ctx context.Context) *SpanSink {
	s, _ := ctx.Value(sinkKey).(*SpanSink)
	return s
}

// OpRecord is one completed operation as retained by the Tracer and as it
// travels in a Debug snapshot. Kind and Transport are display strings, so
// the wire contract survives enum renumbering and unknown values degrade to
// readable text. A received frame keeps at most MaxWireSpans spans.
type OpRecord struct {
	ID        uint64        `wire:"1"`
	Kind      string        `wire:"2"`
	Transport string        `wire:"3"`
	Attempts  uint32        `wire:"4"`
	Ns        uint64        `wire:"5"`
	Bytes     uint64        `wire:"6"`
	WallNs    int64         `wire:"7,zigzag"` // unix ns at retention; stamped for slow ops only
	Spans     []fabric.Span `wire:"8,max=4096"`
}

// keep overwrites r with src, copying src's spans into storage r owns.
func (r *OpRecord) keep(src *OpRecord) {
	*r, r.Spans = *src, append(r.Spans[:0], src.Spans...)
}

// clone returns r with spans of its own.
func (r OpRecord) clone() OpRecord {
	r.Spans = slices.Clone(r.Spans)
	return r
}

// Tracer sizing and promotion policy.
const (
	slowSize         = 64 // retained slow-op log
	exemplarsPerKind = 4  // reservoir size per op kind
	// thresholdEvery refreshes the rolling slow threshold every 2^12 ops.
	thresholdEvery = 1 << 12
	// SlowFactor scales the rolling p99 into the promotion threshold.
	SlowFactor = 2
	// MinSlowNs floors the promotion threshold so a healthy cell (modeled
	// GETs ~10µs, RPC mutations ~100µs) retains only genuine outliers.
	MinSlowNs = 1_000_000
)

// Tracer is a cell-wide op recorder. All methods are safe for concurrent
// use; Record is the hot path and costs one histogram insert plus one
// short critical section.
type Tracer struct {
	hists   [numKinds][numTransports]stats.Histogram
	overall stats.Histogram

	ids      atomic.Uint64
	seq      atomic.Uint64
	slowNs   atomic.Uint64 // rolling threshold; 0 until first refresh
	fixedNs  atomic.Uint64 // SetSlowThreshold override; 0 = rolling
	slowSeen atomic.Uint64

	mu        sync.Mutex
	slow      [slowSize]OpRecord
	slowN     uint64
	exemplars [numKinds][]OpRecord
	rng       uint64 // xorshift state for reservoir sampling

	// Hazard counters are written off the op hot path, when the chaos
	// plane injects (rare), so a plain mutex-guarded map is the right cost
	// profile.
	auxMu   sync.Mutex
	hazards map[string]uint64
}

// HazardCount is one chaos hazard class's cumulative injection count.
type HazardCount struct {
	Name  string `wire:"1"`
	Count uint64 `wire:"2"`
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{rng: 0x9e3779b97f4a7c15}
}

// NextID allocates a fresh op id.
func (t *Tracer) NextID() uint64 { return t.ids.Add(1) }

// SetSlowThreshold pins the slow-op promotion threshold to ns; 0 restores
// the rolling p99-derived policy. Intended for tests and debugging.
func (t *Tracer) SetSlowThreshold(ns uint64) { t.fixedNs.Store(ns) }

// SlowThreshold returns the current promotion threshold.
func (t *Tracer) SlowThreshold() uint64 {
	if f := t.fixedNs.Load(); f != 0 {
		return f
	}
	if th := t.slowNs.Load(); th != 0 {
		return th
	}
	return MinSlowNs
}

// Ops returns the number of ops recorded.
func (t *Tracer) Ops() uint64 { return t.seq.Load() }

// SlowOpsSeen returns the cumulative count of promoted slow ops.
func (t *Tracer) SlowOpsSeen() uint64 { return t.slowSeen.Load() }

// Record retains one completed op: its latency feeds the kind/transport
// and overall histograms, the op is offered to the kind's exemplar
// reservoir, and ops above the slow threshold are promoted to the
// retained slow log with a wall-clock stamp. Its spans are copied (keep)
// only where the op is kept.
func (t *Tracer) Record(id uint64, kind Kind, transport Transport, attempts uint32, tr fabric.OpTrace) {
	if kind >= numKinds {
		kind = KindOther
	}
	if transport >= numTransports {
		transport = TransportRPC
	}
	t.hists[kind][transport].Record(tr.Ns)
	t.overall.Record(tr.Ns)
	seq := t.seq.Add(1)
	if seq%thresholdEvery == 0 && t.fixedNs.Load() == 0 {
		th := t.overall.Percentile(99) * SlowFactor
		if th < MinSlowNs {
			th = MinSlowNs
		}
		t.slowNs.Store(th)
	}
	rec := OpRecord{
		ID: id, Kind: kind.String(), Transport: transport.String(),
		Attempts: attempts, Ns: tr.Ns, Bytes: tr.Bytes, Spans: tr.Spans,
	}
	slow := tr.Ns >= t.SlowThreshold()
	if slow {
		rec.WallNs = time.Now().UnixNano()
		t.slowSeen.Add(1)
	}

	t.mu.Lock()
	ex := t.exemplars[kind]
	if len(ex) < exemplarsPerKind {
		t.exemplars[kind] = append(ex, rec.clone())
	} else {
		// Reservoir: the n-th op of this kind replaces a kept exemplar
		// with probability k/n, giving every op an equal chance.
		n := t.hists[kind][0].Count() + t.hists[kind][1].Count() +
			t.hists[kind][2].Count() + t.hists[kind][3].Count()
		if j := t.randn(n); j < uint64(len(ex)) {
			ex[j].keep(&rec)
		}
	}
	if slow {
		t.slow[t.slowN%slowSize].keep(&rec)
		t.slowN++
	}
	t.mu.Unlock()
}

// randn returns a pseudo-random value in [0, n). Caller holds t.mu.
func (t *Tracer) randn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x % n
}

// HazardInc adds delta to the named hazard counter — called by the chaos
// plane as it applies scheduled events, so telemetry shows what was
// injected next to what the ops experienced.
func (t *Tracer) HazardInc(name string, delta uint64) {
	t.auxMu.Lock()
	if t.hazards == nil {
		t.hazards = make(map[string]uint64)
	}
	t.hazards[name] += delta
	t.auxMu.Unlock()
}

// HistStat is the one latency summary: a kind/transport histogram as a
// tracer snapshots it, as it travels, and as a fleet merge re-derives it.
// SumNs and Buckets (additive tags, absent from old senders) carry the raw
// log-linear distribution so an aggregator can merge per-cell histograms
// into true percentiles instead of averaging quantiles; a received frame
// keeps at most stats.NumBuckets buckets, a histogram has no more. Cells
// counts the cells merged into a fleet-level record and is zero (and off
// the wire) in a cell's own.
type HistStat struct {
	Kind      string             `wire:"1"`
	Transport string             `wire:"2"`
	Count     uint64             `wire:"3"`
	MeanNs    uint64             `wire:"4"`
	P50Ns     uint64             `wire:"5"`
	P90Ns     uint64             `wire:"6"`
	P99Ns     uint64             `wire:"7"`
	P999Ns    uint64             `wire:"8"`
	MaxNs     uint64             `wire:"9"`
	SumNs     uint64             `wire:"10"`
	Buckets   []stats.HistBucket `wire:"11,max=1024" json:",omitempty"`
	Cells     uint64             `wire:"12,omitzero" json:",omitempty"`
}

// Summarize reads the summary off a quiescent histogram.
func Summarize(kind, transport string, h *stats.Histogram) HistStat {
	q := h.Quantiles(50, 90, 99, 99.9)
	return HistStat{
		Kind: kind, Transport: transport, Count: h.Count(), MeanNs: uint64(h.Mean()),
		P50Ns: q[0], P90Ns: q[1], P99Ns: q[2], P999Ns: q[3],
		MaxNs: h.Max(), SumNs: h.Sum(), Buckets: h.Buckets(),
	}
}

// Snapshot is a point-in-time view of the tracer, the payload behind the
// Debug RPC.
type Snapshot struct {
	Ops             uint64
	SlowThresholdNs uint64
	SlowTotal       uint64
	Hists           []HistStat // non-empty cells only
	Slow            []OpRecord // newest first
	Exemplars       []OpRecord
	Hazards         []HazardCount // sorted by name
}

// Snapshot captures current state. maxSlow bounds the slow-op log
// returned (≤ 0 means all retained). Its records are deep copies.
func (t *Tracer) Snapshot(maxSlow int) Snapshot {
	s := Snapshot{
		Ops:             t.seq.Load(),
		SlowThresholdNs: t.SlowThreshold(),
		SlowTotal:       t.slowSeen.Load(),
	}
	for k := Kind(0); k < numKinds; k++ {
		for tp := Transport(0); tp < numTransports; tp++ {
			if h := t.hists[k][tp].Snapshot(); h.Count() != 0 {
				s.Hists = append(s.Hists, Summarize(k.String(), tp.String(), h))
			}
		}
	}

	t.mu.Lock()
	n := t.slowN
	if n > slowSize {
		n = slowSize
	}
	if maxSlow > 0 && uint64(maxSlow) < n {
		n = uint64(maxSlow)
	}
	for i := uint64(0); i < n; i++ {
		s.Slow = append(s.Slow, t.slow[(t.slowN-1-i)%slowSize].clone())
	}
	for k := Kind(0); k < numKinds; k++ {
		for _, r := range t.exemplars[k] {
			s.Exemplars = append(s.Exemplars, r.clone())
		}
	}
	t.mu.Unlock()

	t.auxMu.Lock()
	for name, n := range t.hazards {
		s.Hazards = append(s.Hazards, HazardCount{Name: name, Count: n})
	}
	t.auxMu.Unlock()
	sort.Slice(s.Hazards, func(i, j int) bool { return s.Hazards[i].Name < s.Hazards[j].Name })
	return s
}
