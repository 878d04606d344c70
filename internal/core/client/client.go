// Package client implements the CliqueMap client library (§3, §5): the
// only component that touches every transport.
//
// GETs run over one-sided RMA — 2×R (bucket fetch then data fetch), SCAR
// (single round trip on software NICs), MSG (two-sided messaging), or RPC,
// which is also every GET's last attempt — while every mutation is an RPC
// to all replicas with a client-nominated VersionNumber.
//
// Under R=3.2 the client fetches the index from all three replicas,
// speculatively reads data from the first responder (the preferred
// backend), and forms a per-KV majority quorum on {VersionNumber,
// KeyHash}; a GET is a hit only if the checksum validates, two replicas
// agree, the full key matches, and the data came from a quorum member
// (§5.1). Every hazard — torn reads, revoked windows, config changes,
// crashed backends, lost quorums — funnels into one mechanism: classify
// the failure, repair client state at the right layer (retry / re-
// handshake / config refresh), and try again (§3, §9).
package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rpc"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// Strategy selects the lookup path (§6.3, Figure 7).
type Strategy int

const (
	// Strategy2xR: two dependent RMA reads. Works on every transport.
	Strategy2xR Strategy = iota
	// StrategySCAR: single-round-trip scan-and-read (software NICs only).
	StrategySCAR
	// StrategyMSG: two-sided messaging through the NIC.
	StrategyMSG
	// StrategyRPC: full RPC lookups (WAN / no-RMA environments).
	StrategyRPC
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case Strategy2xR:
		return "2xR"
	case StrategySCAR:
		return "SCAR"
	case StrategyMSG:
		return "MSG"
	case StrategyRPC:
		return "RPC"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

var (
	// ErrInquorate reports a GET that could not assemble a quorum after
	// retries — surfaced as an error so callers can distinguish it from a
	// clean miss (§5.3: repeated mutations can starve GETs).
	ErrInquorate = errors.New("client: no quorum")
	// ErrExhausted reports an op that ran out of retries/deadline.
	ErrExhausted = errors.New("client: retries exhausted")
	// ErrUnavailable reports that too few replicas were reachable.
	ErrUnavailable = errors.New("client: replicas unavailable")
)

// Metrics aggregates client-observable behaviour for the experiments.
type Metrics struct {
	Gets, Hits, Misses     stats.Counter
	Sets                   stats.Counter
	TornRetries            stats.Counter // checksum failures (§3)
	WindowRetries          stats.Counter // revoked windows → re-handshake (§4.1)
	ConfigRetries          stats.Counter // config-ID mismatches → refresh (§6.1)
	QuorumRetries          stats.Counter // preferred backend outside quorum (§5.1)
	Inquorate              stats.Counter
	RPCFallbacks           stats.Counter // GETs served by an overflow re-read or the final attempt, over RPC
	Failovers              stats.Counter // data reads absorbed by a backup quorum member
	BudgetDenied           stats.Counter // retries refused by the retry budget
	BackoffNs              stats.Counter // virtual ns spent backing off
	NearHits               stats.Counter // near-cache serves validated by an index quorum
	NearStale              stats.Counter // near entries dropped: version moved under us
	WarmReads              stats.Counter // remembered data reads kept: started with the index reads (ptrs.go)
	StalePointers          stats.Counter // remembered data reads wasted: the replica's entry moved
	GetLatency, SetLatency stats.Histogram
}

// RetryCount sums retryable hazards observed.
func (m *Metrics) RetryCount() uint64 {
	return m.TornRetries.Value() + m.WindowRetries.Value() + m.ConfigRetries.Value() + m.QuorumRetries.Value()
}

// Options configures a client.
type Options struct {
	ID       uint64 // client identity for VersionNumbers
	HostID   int    // fabric host the client runs on
	Strategy Strategy
	Retries  int // per-op retry budget (default 5)
	// TouchBatch enables access-record reporting (§4.2); 0 disables. A
	// hit queues its key for each cohort member; the next mutation leg to
	// that member carries the queue, and a queue that reaches TouchBatch
	// first flushes as a Touch RPC.
	TouchBatch int
	Hash       hashring.HashFunc
	// Tracer, when set, records every completed op (kind, transport,
	// attempts, per-layer spans) into the cell's telemetry plane.
	Tracer *trace.Tracer
	// Budget bounds retry amplification across all of this client's ops;
	// nil gets a private default budget (10 tokens, 0.1 credit/success).
	Budget *RetryBudget
	// Seed perturbs the client's jitter/probe randomness; 0 derives from
	// ID so distinct clients desynchronize by default.
	Seed uint64
	// NearCacheEntries is the one hot-key adaptive-serving switch (0 = off):
	// it sizes the client-side near-cache for the keys hot in this client's
	// own GETs. Only the RMA lookup strategies (2xR, SCAR) use it: their
	// index-only revalidation round is what makes a near-serve cheaper than
	// the full path.
	NearCacheEntries int
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 5
	}
	o.Hash = hashring.OrDefault(o.Hash)
	if o.Budget == nil {
		o.Budget = NewRetryBudget(0, 0)
	}
	if o.Seed == 0 {
		o.Seed = o.ID*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	}
	return o
}

// DialFunc opens a one-sided connection to a backend host.
type DialFunc func(hostID int) nic.RMA

// MsgFunc performs a two-sided NIC message exchange with a backend host;
// nil when the transport lacks messaging. at is the op's virtual start
// instant (0 = now).
type MsgFunc func(hostID int, at uint64, req []byte) ([]byte, fabric.OpTrace, error)

// NowFunc samples the fabric's virtual clock; nil means legs are not
// pinned to a common op start (acceptable for tests).
type NowFunc func() uint64

// Client is one CliqueMap client instance. Safe for concurrent use.
type Client struct {
	opt   Options
	store *config.Store
	rpcc  rpc.Caller
	gen   *truetime.Generator
	dial  DialFunc
	msg   MsgFunc
	now   NowFunc
	acct  *stats.CPUAccount
	fetch legKind // a GET attempt's fetch, by Strategy (the final fallback goes over RPC)

	mu     sync.Mutex
	cfg    config.CellConfig
	conns  map[int]nic.RMA            // by host id
	hellos map[string]proto.HelloResp // by backend addr
	touchQ map[string]*touchQueue     // by backend addr

	health   healthState   // per-replica demotion scores
	rngState atomic.Uint64 // jitter/probe randomness (xorshift)
	rpcAt    atomic.Uint64 // the clock's now when this client's last RPC returned
	ops      trace.Leases  // the spare op record every public op leases

	near *nearCache // hot-key adaptive serving (nearcache.go); nil = off
	ptrs *ptrTable  // remembered data pointers (ptrs.go); nil unless GETs take a dependent read

	M Metrics
}

// Client-side CPU of a lookup by strategy (Figure 7 calibration). legTable
// (leg.go) bills them: cpuSCAR per SCAR leg, cpu2xR/2 per index leg and
// per data leg, and the two-sided ones once per fetch.
const (
	cpu2xR  = 900
	cpuSCAR = 560
	cpuMSG  = 700
	cpuRPC  = 1200
)

// New builds a client. msg, now, and acct may be nil.
func New(opt Options, store *config.Store, rpcc rpc.Caller, clock truetime.Clock, dial DialFunc, msg MsgFunc, now NowFunc, acct *stats.CPUAccount) *Client {
	opt = opt.withDefaults()
	c := &Client{
		opt:    opt,
		store:  store,
		rpcc:   rpcc,
		gen:    truetime.NewGenerator(clock, opt.ID),
		dial:   dial,
		msg:    msg,
		now:    now,
		acct:   acct,
		conns:  make(map[int]nic.RMA),
		hellos: make(map[string]proto.HelloResp),
		touchQ: make(map[string]*touchQueue),
	}
	c.rngState.Store(opt.Seed)
	c.cfg = store.Get()
	switch {
	case opt.Strategy == StrategyRPC, opt.Strategy == StrategyMSG && msg == nil:
		c.fetch = legRPC
	case opt.Strategy == StrategyMSG:
		c.fetch = legMsg
	case opt.Strategy == StrategySCAR:
		c.fetch = legScar
	default:
		c.fetch = legIndex
	}
	oneSided := opt.Strategy == Strategy2xR || opt.Strategy == StrategySCAR
	if opt.NearCacheEntries > 0 && oneSided {
		c.near = newNearCache(opt.NearCacheEntries)
	}
	if opt.Strategy == Strategy2xR && c.cfg.Mode.Quorum() > 1 {
		c.ptrs = new(ptrTable)
	}
	return c
}

// Config returns the client's cached cell configuration.
func (c *Client) Config() config.CellConfig {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg
}

// Transport is the trace label of the configured lookup strategy — the
// tier edge uses it to attribute federated reads per transport.
func (c *Client) Transport() trace.Transport {
	switch c.opt.Strategy {
	case StrategySCAR:
		return trace.TransportSCAR
	case StrategyMSG:
		return trace.TransportMSG
	case StrategyRPC:
		return trace.TransportRPC
	}
	return trace.Transport2xR
}

// traceOp opens a span context for one op in its leased record, attaching
// it to ctx so every layer below (RPC framework, backend handlers, TCP
// gateway) attributes work to it. Returns (nil, ctx) when tracing is not
// wired — or when ctx already carries a span context opened by an enclosing
// op (a federation tier edge): then this op is one leg of that op, its spans
// ride the returned OpTrace under the enclosing op id, and only the
// enclosing layer records — one user op, one trace, even across cells.
func (c *Client) traceOp(ctx context.Context, op *trace.OpLease, k trace.Kind) (*trace.SpanContext, context.Context) {
	if c.opt.Tracer == nil || trace.FromContext(ctx) != nil {
		return nil, ctx
	}
	sc := op.Init(ctx, trace.SpanContext{OpID: c.opt.Tracer.NextID(), Kind: k})
	return sc, &op.OpContext
}
