// Package trace is CliqueMap's always-on, low-overhead operation tracing
// plane. Every client op carries a span context (op id, kind, transport,
// attempt #) through context.Context and the RPC wire frames; each layer
// it crosses — client quorum assembly, the RPC framework, backend stripe
// locks, the Pony Express / 1RMA NIC models — attributes its share of the
// latency as fabric.Spans riding on the op's fabric.OpTrace. Completed
// ops are recorded into a per-cell Tracer: per-kind × per-transport
// latency histograms, a fixed-size ring of recent ops, reservoir-sampled
// exemplars per kind, and a retained log of slow ops (latency above a
// rolling p99-derived threshold). The proto.MethodDebug RPC serializes a
// Tracer snapshot for remote inspection (cmstat -trace), and WriteProm
// renders it as Prometheus text exposition (cmcell -http).
package trace

import (
	"context"
	"fmt"
	"io"
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
	SpanHedge         uint16 = 16 // client: hedged/failover data read on a backup replica; Arg = shard
	SpanTierRoute     uint16 = 17 // tier: one routing decision; Arg = tier-level attempt #
	SpanRingLookup    uint16 = 18 // tier: weighted-ring owner resolution; Arg = ring version (low 32 bits)
	SpanTierForward   uint16 = 19 // tier: op forwarded to a remote owner cell; Arg = owner cell index
	SpanFollowerHit   uint16 = 20 // tier: follower cache served inside the staleness bound; Arg = age µs
	SpanFollowerReval uint16 = 21 // tier: stale follower entry revalidated by owner version; Arg = 0 confirmed, 1 refreshed, 2 erased
	SpanRPCQueue      uint16 = 22 // rpc: modelled admission-queue wait at a loaded server; Arg = utilization ‰
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
	case SpanHedge:
		return "hedge"
	case SpanTierRoute:
		return "tier-route"
	case SpanRingLookup:
		return "ring-lookup"
	case SpanTierForward:
		return "tier-forward"
	case SpanFollowerHit:
		return "follower-cache-hit"
	case SpanFollowerReval:
		return "follower-revalidate"
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

// TransportOf parses a transport name; unknown names map to TransportRPC.
func TransportOf(s string) Transport {
	switch s {
	case "2xR":
		return Transport2xR
	case "SCAR":
		return TransportSCAR
	case "MSG":
		return TransportMSG
	}
	return TransportRPC
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
// node's storage: the TCP gateway embeds one in each pooled call record
// and re-arms it with Init. It also has the op's one sink slot, which
// AttachSink fills for the RPC leg whose handler is running.
type OpContext struct {
	context.Context
	sc   SpanContext
	sink atomic.Pointer[SpanSink]
}

func (c *OpContext) Value(key any) any {
	switch key {
	case any(spanContextKey):
		return &c.sc
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
// copy (see NewContext). Everything handed c as its context must be done
// with it before the next Init.
func (c *OpContext) Init(parent context.Context, sc SpanContext) *SpanContext {
	c.Context, c.sc = parent, sc
	return &c.sc
}

// NewContext attaches sc to ctx. The returned pointer is the attached
// copy — the one FromContext hands to every layer below — so the opener
// updates Attempt through it.
func NewContext(ctx context.Context, sc SpanContext) (context.Context, *SpanContext) {
	c := new(OpContext)
	return c, c.Init(ctx, sc)
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
	s.spans = s.spans[:0]
	sinkPool.Put(s)
}

// AttachSink attaches s to ctx for the handler side of one call. It goes
// in the sink slot of ctx's op node when that is free, and the caller owes
// the returned node a ReleaseSink once the handler is back. The slot is
// claimed, never assumed: an op's concurrent legs (GetBatch, a tier edge)
// and a handler's own nested calls share the one node, so a call that finds
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

// OpRecord is one completed operation as retained by the Tracer.
type OpRecord struct {
	ID        uint64
	Seq       uint64 // completion order within this tracer
	Kind      Kind
	Transport Transport
	Attempts  uint32
	Ns        uint64
	Bytes     uint64
	WallNs    int64 // unix ns at retention; stamped for slow ops only
	Spans     []fabric.Span
}

// Tracer sizing and promotion policy.
const (
	ringSize         = 512 // recent-op ring
	slowSize         = 64  // retained slow-op log
	exemplarsPerKind = 4   // reservoir size per op kind
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
	ring      [ringSize]OpRecord
	slow      [slowSize]OpRecord
	slowN     uint64
	exemplars [numKinds][]OpRecord
	rng       uint64 // xorshift state for reservoir sampling

	// Hazard counters and per-replica health gauges are written off the op
	// hot path — hazards when the chaos plane injects (rare), health on
	// demotion/recovery transitions (rarer) — so a plain mutex-guarded map
	// is the right cost profile.
	auxMu   sync.Mutex
	hazards map[string]uint64
	health  map[string]ReplicaHealth
}

// ReplicaHealth is one backend's client-observed health gauge: a failure
// EWMA in [0,1] and whether the client currently demotes it from
// preferred-replica selection.
type ReplicaHealth struct {
	Addr    string
	Score   float64
	Demoted bool
}

// HazardCount is one hazard class's cumulative injection count.
type HazardCount struct {
	Name  string
	Count uint64
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

// Hist returns the live histogram for one kind/transport cell.
func (t *Tracer) Hist(k Kind, tp Transport) *stats.Histogram {
	return &t.hists[k][tp]
}

// Overall returns the live all-ops histogram.
func (t *Tracer) Overall() *stats.Histogram { return &t.overall }

// Record retains one completed op: its latency feeds the kind/transport
// and overall histograms, the op enters the recent ring and the kind's
// exemplar reservoir, and ops above the slow threshold are promoted to
// the retained slow log with a wall-clock stamp.
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
		ID: id, Seq: seq, Kind: kind, Transport: transport,
		Attempts: attempts, Ns: tr.Ns, Bytes: tr.Bytes, Spans: tr.Spans,
	}
	slow := tr.Ns >= t.SlowThreshold()
	if slow {
		rec.WallNs = time.Now().UnixNano()
		t.slowSeen.Add(1)
	}

	t.mu.Lock()
	t.ring[seq%ringSize] = rec
	ex := t.exemplars[kind]
	if len(ex) < exemplarsPerKind {
		t.exemplars[kind] = append(ex, rec)
	} else {
		// Reservoir: the n-th op of this kind replaces a kept exemplar
		// with probability k/n, giving every op an equal chance.
		n := t.hists[kind][0].Count() + t.hists[kind][1].Count() +
			t.hists[kind][2].Count() + t.hists[kind][3].Count()
		if j := t.randn(n); j < uint64(len(ex)) {
			ex[j] = rec
		}
	}
	if slow {
		t.slow[t.slowN%slowSize] = rec
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

// SetReplicaHealth publishes one backend's client-side health gauge.
func (t *Tracer) SetReplicaHealth(addr string, score float64, demoted bool) {
	t.auxMu.Lock()
	if t.health == nil {
		t.health = make(map[string]ReplicaHealth)
	}
	t.health[addr] = ReplicaHealth{Addr: addr, Score: score, Demoted: demoted}
	t.auxMu.Unlock()
}

// HistStat is one kind/transport histogram summary. SumNs and Buckets
// carry the raw distribution so fleet-level consumers can merge
// histograms exactly instead of averaging quantiles.
type HistStat struct {
	Kind      Kind
	Transport Transport
	Count     uint64
	MeanNs    uint64
	P50Ns     uint64
	P90Ns     uint64
	P99Ns     uint64
	P999Ns    uint64
	MaxNs     uint64
	SumNs     uint64
	Buckets   []stats.HistBucket
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
	Hazards         []HazardCount   // sorted by name
	Health          []ReplicaHealth // sorted by addr
}

// Snapshot captures current state. maxSlow bounds the slow-op log
// returned (≤ 0 means all retained).
func (t *Tracer) Snapshot(maxSlow int) Snapshot {
	s := Snapshot{
		Ops:             t.seq.Load(),
		SlowThresholdNs: t.SlowThreshold(),
		SlowTotal:       t.slowSeen.Load(),
	}
	for k := Kind(0); k < numKinds; k++ {
		for tp := Transport(0); tp < numTransports; tp++ {
			h := t.hists[k][tp].Snapshot()
			if h.Count() == 0 {
				continue
			}
			q := h.Quantiles(50, 90, 99, 99.9)
			s.Hists = append(s.Hists, HistStat{
				Kind: k, Transport: tp, Count: h.Count(),
				MeanNs: uint64(h.Mean()),
				P50Ns:  q[0], P90Ns: q[1], P99Ns: q[2], P999Ns: q[3],
				MaxNs: h.Max(), SumNs: h.Sum(), Buckets: h.Buckets(),
			})
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
		s.Slow = append(s.Slow, t.slow[(t.slowN-1-i)%slowSize])
	}
	for k := Kind(0); k < numKinds; k++ {
		s.Exemplars = append(s.Exemplars, t.exemplars[k]...)
	}
	t.mu.Unlock()

	t.auxMu.Lock()
	for name, n := range t.hazards {
		s.Hazards = append(s.Hazards, HazardCount{Name: name, Count: n})
	}
	for _, h := range t.health {
		s.Health = append(s.Health, h)
	}
	t.auxMu.Unlock()
	sort.Slice(s.Hazards, func(i, j int) bool { return s.Hazards[i].Name < s.Hazards[j].Name })
	sort.Slice(s.Health, func(i, j int) bool { return s.Health[i].Addr < s.Health[j].Addr })
	return s
}

// Recent returns up to max recent ops, newest first — in-process
// debugging and tests; the wire plane ships Slow + Exemplars.
func (t *Tracer) Recent(max int) []OpRecord {
	if max <= 0 || max > ringSize {
		max = ringSize
	}
	seq := t.seq.Load()
	var out []OpRecord
	t.mu.Lock()
	for i := uint64(0); i < uint64(max) && i < seq; i++ {
		r := t.ring[(seq-i)%ringSize]
		if r.Seq == 0 {
			break
		}
		out = append(out, r)
	}
	t.mu.Unlock()
	return out
}

// WriteProm renders the tracer as Prometheus text exposition: op counts,
// latency quantile gauges per kind/transport, and slow-op totals. acct,
// when non-nil, adds per-component CPU counters.
func (t *Tracer) WriteProm(w io.Writer, acct *stats.CPUAccount) {
	s := t.Snapshot(0)
	fmt.Fprintf(w, "# TYPE cliquemap_ops_total counter\n")
	fmt.Fprintf(w, "cliquemap_ops_total %d\n", s.Ops)
	fmt.Fprintf(w, "# TYPE cliquemap_slow_ops_total counter\n")
	fmt.Fprintf(w, "cliquemap_slow_ops_total %d\n", s.SlowTotal)
	fmt.Fprintf(w, "# TYPE cliquemap_slow_threshold_ns gauge\n")
	fmt.Fprintf(w, "cliquemap_slow_threshold_ns %d\n", s.SlowThresholdNs)
	fmt.Fprintf(w, "# TYPE cliquemap_op_latency_ns summary\n")
	for _, h := range s.Hists {
		l := fmt.Sprintf("kind=%q,transport=%q", h.Kind, h.Transport)
		fmt.Fprintf(w, "cliquemap_op_latency_ns{%s,quantile=\"0.5\"} %d\n", l, h.P50Ns)
		fmt.Fprintf(w, "cliquemap_op_latency_ns{%s,quantile=\"0.9\"} %d\n", l, h.P90Ns)
		fmt.Fprintf(w, "cliquemap_op_latency_ns{%s,quantile=\"0.99\"} %d\n", l, h.P99Ns)
		fmt.Fprintf(w, "cliquemap_op_latency_ns{%s,quantile=\"0.999\"} %d\n", l, h.P999Ns)
		fmt.Fprintf(w, "cliquemap_op_latency_ns_count{%s} %d\n", l, h.Count)
		fmt.Fprintf(w, "cliquemap_op_latency_ns_sum{%s} %d\n", l, h.Count*h.MeanNs)
	}
	if len(s.Hazards) > 0 {
		fmt.Fprintf(w, "# TYPE cliquemap_hazard_injections_total counter\n")
		for _, h := range s.Hazards {
			fmt.Fprintf(w, "cliquemap_hazard_injections_total{hazard=%q} %d\n", h.Name, h.Count)
		}
	}
	if len(s.Health) > 0 {
		fmt.Fprintf(w, "# TYPE cliquemap_replica_health_score gauge\n")
		for _, h := range s.Health {
			demoted := 0
			if h.Demoted {
				demoted = 1
			}
			fmt.Fprintf(w, "cliquemap_replica_health_score{replica=%q} %g\n", h.Addr, h.Score)
			fmt.Fprintf(w, "cliquemap_replica_demoted{replica=%q} %d\n", h.Addr, demoted)
		}
	}
	if acct != nil {
		fmt.Fprintf(w, "# TYPE cliquemap_cpu_ns_total counter\n")
		for _, comp := range acct.Components() {
			fmt.Fprintf(w, "cliquemap_cpu_ns_total{component=%q} %d\n", comp, acct.TotalNanos(comp))
		}
	}
}
