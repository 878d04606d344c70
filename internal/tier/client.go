package tier

import (
	"context"
	"errors"
	"sync/atomic"

	"cliquemap/internal/core/client"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// ErrNoCells means the router has no routable cell (everything dead or
// zero-weight).
var ErrNoCells = errors.New("tier: no routable cells")

// ClientOptions configures a tier client.
type ClientOptions struct {
	// Local names the cell this client is co-located with: its tracer
	// records every tier op, one trace per user op carrying the tier
	// spans (tier-route, ring-lookup, tier-forward) plus every span the
	// owner cell's legs contributed, so the co-located cell's MethodDebug
	// (cmstat -trace) shows the federated op end to end. A leg to any
	// other cell is bracketed as forwarded. "" means the tier's first cell.
	Local string
}

// Metrics counts tier-client outcomes. Read with Client.Metrics.
type Metrics struct {
	Ops           atomic.Uint64 // tier-level ops attempted
	Reroutes      atomic.Uint64 // retries after a failed cell op
	DeadFailovers atomic.Uint64 // retries that followed a cell-death rebuild
}

// Client routes ops across a tier's cells: GETs and mutations go to the
// key's owning cell, mutations ack only after the owner does, and a
// failed cell is reported to the router and retried against the next
// owner — that retry-after-reroute is what keeps acked writes readable
// through a cell death.
type Client struct {
	t   *Tier
	opt ClientOptions
	cls map[string]*client.Client
	m   Metrics

	tracer  *trace.Tracer     // the local cell's
	ops     trace.Leases      // the spare op record every tier op leases
	cellIdx map[string]uint32 // cell name → configuration-order index, for span args
}

// NewClient builds a tier client with one default per-cell client each.
func (t *Tier) NewClient(opt ClientOptions) (*Client, error) {
	if opt.Local == "" {
		opt.Local = t.order[0]
	}
	if t.cells[opt.Local] == nil {
		return nil, errors.New("tier: unknown local cell " + opt.Local)
	}
	c := &Client{t: t, opt: opt, cls: make(map[string]*client.Client, len(t.order))}
	for _, n := range t.order {
		c.cls[n] = t.cells[n].NewClient(client.Options{})
	}
	c.tracer = t.cells[opt.Local].Tracer
	c.cellIdx = make(map[string]uint32, len(t.order))
	for i, n := range t.order {
		c.cellIdx[n] = uint32(i)
	}
	return c, nil
}

// Metrics returns the client's outcome counters.
func (c *Client) Metrics() *Metrics { return &c.m }

// traceOp opens the tier-level span context for one user op in its leased
// record, and returns total with the record's span buffer (nil: untraced).
// The per-cell clients see it in ctx and contribute their spans to THIS op
// instead of recording their own — the cross-cell propagation mechanism:
// over TCP the wire frames carry this op id into the remote cell, and
// every leg's spans come back on its OpTrace.
func (c *Client) traceOp(ctx context.Context, op *trace.OpLease, total *fabric.OpTrace, k trace.Kind) (*trace.SpanContext, context.Context, *fabric.OpTrace) {
	if c.tracer == nil || trace.FromContext(ctx) != nil {
		return nil, ctx, nil
	}
	total.Spans = op.Spans[:0]
	return op.Init(ctx, trace.SpanContext{OpID: c.tracer.NextID(), Kind: k}), &op.OpContext, total
}

// route resolves key's owning cell, or ErrNoCells, annotating the
// ring-lookup and routing-decision spans.
func (c *Client) route(h hashring.KeyHash, total *fabric.OpTrace, attempt int) (string, error) {
	n, ok := c.t.router.Route(h)
	if total != nil {
		total.Annotate(trace.SpanRingLookup, uint32(c.t.router.Version()), total.Ns, 0)
		total.Annotate(trace.SpanTierRoute, uint32(attempt), total.Ns, 0)
	}
	if !ok {
		return "", ErrNoCells
	}
	return n, nil
}

// ownerLeg sequences one owner-cell leg into the tier op's trace,
// bracketing a remote owner's with a tier-forward span. A nil total (the
// tier op is untraced) makes it a no-op — the only place the traced and
// untraced paths differ.
func (c *Client) ownerLeg(total *fabric.OpTrace, owner string, tr fabric.OpTrace) {
	if total == nil {
		return
	}
	start := total.Ns
	total.Sequence(tr)
	if owner != c.opt.Local {
		total.Annotate(trace.SpanTierForward, c.cellIdx[owner], start, tr.Ns)
	}
}

// do routes one op to key's owning cell and runs it on that cell's client,
// re-routing after a failed cell op: a mutation's ack means the owning
// cell (under the ring in effect at ack time) holds it. A failed op is
// reported to the router, which counts it toward the cell's death.
func (c *Client) do(ctx context.Context, k trace.Kind, key []byte, run func(context.Context, *client.Client) (fabric.OpTrace, error)) error {
	c.m.Ops.Add(1)
	h := hashring.DefaultHash(key)
	op := c.ops.Take()
	defer c.ops.Put(op)
	var optr fabric.OpTrace
	sc, ctx, total := c.traceOp(ctx, op, &optr, k)
	var lastErr error = ErrNoCells
	for attempt := 0; attempt <= reroutes; attempt++ {
		owner, err := c.route(h, total, attempt)
		if err != nil {
			return err
		}
		cl := c.cls[owner]
		tr, err := run(ctx, cl)
		c.ownerLeg(total, owner, tr)
		if err == nil {
			c.t.router.NoteSuccess(owner)
			if sc != nil {
				tp := trace.TransportRPC
				if k == trace.KindGet {
					tp = cl.Transport()
				}
				c.tracer.Record(sc.OpID, k, tp, uint32(attempt+1), *total)
			}
			return nil
		}
		lastErr = err
		if c.t.router.NoteFailure(owner) {
			c.m.DeadFailovers.Add(1)
		}
		c.m.Reroutes.Add(1)
	}
	return lastErr
}

// Get looks up key on its owning cell.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	var val []byte
	var found bool
	err := c.do(ctx, trace.KindGet, key, func(ctx context.Context, cl *client.Client) (tr fabric.OpTrace, err error) {
		val, found, tr, err = cl.GetTraced(ctx, key)
		return tr, err
	})
	if err != nil {
		return nil, false, err
	}
	return val, found, nil
}

// Set stores key=value on the owning cell.
func (c *Client) Set(ctx context.Context, key, value []byte) error {
	_, err := c.SetVersioned(ctx, key, value)
	return err
}

// SetVersioned stores key=value on the owning cell and returns the
// owner-assigned version.
func (c *Client) SetVersioned(ctx context.Context, key, value []byte) (truetime.Version, error) {
	var ver truetime.Version
	err := c.do(ctx, trace.KindSet, key, func(ctx context.Context, cl *client.Client) (tr fabric.OpTrace, err error) {
		ver, tr, err = cl.SetVersionedTraced(ctx, key, value)
		return tr, err
	})
	if err != nil {
		return truetime.Version{}, err
	}
	return ver, nil
}

// Erase removes key from its owning cell.
func (c *Client) Erase(ctx context.Context, key []byte) error {
	return c.do(ctx, trace.KindErase, key, func(ctx context.Context, cl *client.Client) (fabric.OpTrace, error) {
		return cl.EraseTraced(ctx, key)
	})
}

// Cas compare-and-swaps on the owning cell.
func (c *Client) Cas(ctx context.Context, key, value []byte, expected truetime.Version) (bool, error) {
	var applied bool
	err := c.do(ctx, trace.KindCas, key, func(ctx context.Context, cl *client.Client) (tr fabric.OpTrace, err error) {
		applied, tr, err = cl.CasTraced(ctx, key, value, expected)
		return tr, err
	})
	return applied && err == nil, err
}
