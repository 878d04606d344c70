package tier

import (
	"context"
	"errors"
	"sync/atomic"

	"cliquemap/internal/core/client"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
)

// ErrNoCells means the router has no routable cell (everything dead or
// zero-weight).
var ErrNoCells = errors.New("tier: no routable cells")

// followerPrefix reserves the local-cell namespace holding follower-read
// cache entries (wrapped with version + freshness stamp), keeping them
// disjoint from authoritative entries the cell owns outright. It aliases
// layout.TierKeyPrefix so the backend's heat sketch can recognize (and
// exclude) follower-cache traffic without importing this package.
const followerPrefix = layout.TierKeyPrefix

// ClientOptions configures a tier client.
type ClientOptions struct {
	// Local names the cell this client is co-located with — the follower
	// cache for keys owned elsewhere. "" means the tier's first cell.
	Local string

	// FollowerReads serves GETs for remotely-owned keys from the local
	// cell when a cached copy is younger than StaleBound; older copies
	// are revalidated against the owner by version (TAO-style leader/
	// follower, bounded staleness instead of invalidation fan-out).
	FollowerReads bool

	// StaleBoundNs is the follower-cache freshness bound on the LOCAL
	// cell's virtual clock; 0 means 50ms.
	StaleBoundNs uint64

	// PerCell templates the per-cell client options (strategy, R,
	// ...). ID/HostID are assigned per cell as usual.
	PerCell client.Options

	// Tracer records completed tier-level ops: one trace per user op,
	// carrying the tier spans (tier-route, ring-lookup, tier-forward,
	// follower-cache-hit, follower-revalidate) plus every span the
	// per-cell legs contributed — follower cell and owner cell on the
	// same op id. nil means the LOCAL cell's tracer, so the co-located
	// cell's MethodDebug (cmstat -trace) shows the federated op
	// end-to-end; the per-cell clients see the tier's span context in
	// ctx and contribute spans instead of double-recording.
	Tracer *trace.Tracer
}

// Metrics counts tier-client outcomes. Read with ClientMetrics.
type Metrics struct {
	Ops               atomic.Uint64 // tier-level ops attempted
	Reroutes          atomic.Uint64 // retries after a failed cell op
	DeadFailovers     atomic.Uint64 // retries that followed a cell-death rebuild
	FollowerHits      atomic.Uint64 // served fresh from the local follower cache
	FollowerRevalids  atomic.Uint64 // stale entry confirmed current by owner version
	FollowerRefreshes atomic.Uint64 // stale entry replaced by a newer owner value
	FollowerMisses    atomic.Uint64 // no usable local entry; fetched from owner
}

// Client routes ops across a tier's cells: GETs and mutations go to the
// key's owning cell, mutations ack only after the owner does, and a
// failed cell is reported to the router and retried against the next
// owner — that retry-after-reroute is what keeps acked writes readable
// through a cell death.
type Client struct {
	t     *Tier
	opt   ClientOptions
	cls   map[string]*client.Client
	local *client.Client
	now   func() uint64 // local cell's virtual clock
	m     Metrics

	tracer  *trace.Tracer
	ops     trace.Leases      // the spare op record every tier op leases
	cellIdx map[string]uint32 // cell name → configuration-order index, for span args
}

// NewClient builds a tier client with one per-cell client each.
func (t *Tier) NewClient(opt ClientOptions) (*Client, error) {
	if opt.Local == "" {
		opt.Local = t.order[0]
	}
	if t.cells[opt.Local] == nil {
		return nil, errors.New("tier: unknown local cell " + opt.Local)
	}
	if opt.StaleBoundNs == 0 {
		opt.StaleBoundNs = 50e6
	}
	c := &Client{t: t, opt: opt, cls: make(map[string]*client.Client, len(t.order))}
	for _, n := range t.order {
		c.cls[n] = t.cells[n].NewClient(opt.PerCell)
	}
	c.local = c.cls[opt.Local]
	c.now = t.cells[opt.Local].Fabric.NowNs
	c.tracer = opt.Tracer
	if c.tracer == nil {
		c.tracer = t.cells[opt.Local].Tracer
	}
	c.cellIdx = make(map[string]uint32, len(t.order))
	for i, n := range t.order {
		c.cellIdx[n] = uint32(i)
	}
	return c, nil
}

// Metrics returns the client's outcome counters.
func (c *Client) Metrics() *Metrics { return &c.m }

// Tracer returns the tier-edge tracer tier ops record into.
func (c *Client) Tracer() *trace.Tracer { return c.tracer }

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

// finish records one completed tier op into the tier-edge tracer.
// Nil-safe: a nil sc (tracing off, or an enclosing op already tracing)
// records nothing.
func (c *Client) finish(sc *trace.SpanContext, total *fabric.OpTrace, k trace.Kind, tp trace.Transport, attempts uint32) {
	if sc == nil {
		return
	}
	c.tracer.Record(sc.OpID, k, tp, attempts, *total)
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

// fold sequences one cell-client leg into the tier op's trace and, when
// code is nonzero, brackets it with a span annotation. A nil total (the
// tier op is untraced) makes it a no-op — the only place the traced and
// untraced paths differ.
func fold(total *fabric.OpTrace, tr fabric.OpTrace, code uint16, arg uint32) {
	if total == nil {
		return
	}
	start := total.Ns
	total.Sequence(tr)
	if code != 0 {
		total.Annotate(code, arg, start, tr.Ns)
	}
}

// ownerLeg folds an owner-cell leg into total, bracketing a remote
// owner's with a tier-forward span.
func (c *Client) ownerLeg(total *fabric.OpTrace, owner string, tr fabric.OpTrace) {
	if owner == c.opt.Local {
		fold(total, tr, 0, 0)
		return
	}
	fold(total, tr, trace.SpanTierForward, c.cellIdx[owner])
}

// noteFailed reports a failed op on owner and counts the retry flavor.
func (c *Client) noteFailed(owner string) {
	if c.t.router.NoteFailure(owner) {
		c.m.DeadFailovers.Add(1)
	}
	c.m.Reroutes.Add(1)
}

// Get looks up key on its owning cell; with FollowerReads, remotely-
// owned keys are served from the local cell inside the staleness bound.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	c.m.Ops.Add(1)
	h := hashring.DefaultHash(key)
	op := c.ops.Take()
	defer c.ops.Put(op)
	var optr fabric.OpTrace
	sc, ctx, total := c.traceOp(ctx, op, &optr, trace.KindGet)
	var lastErr error = ErrNoCells
	for attempt := 0; attempt <= reroutes; attempt++ {
		owner, err := c.route(h, total, attempt)
		if err != nil {
			return nil, false, err
		}
		var val []byte
		var found bool
		served := c.cls[owner]
		if c.opt.FollowerReads && owner != c.opt.Local {
			served = c.local
			val, found, err = c.followerGet(ctx, owner, key, total)
		} else {
			var tr fabric.OpTrace
			val, found, tr, err = served.GetTraced(ctx, key)
			c.ownerLeg(total, owner, tr)
		}
		if err == nil {
			c.t.router.NoteSuccess(owner)
			c.finish(sc, total, trace.KindGet, served.Transport(), uint32(attempt+1))
			return val, found, nil
		}
		lastErr = err
		c.noteFailed(owner)
	}
	return nil, false, lastErr
}

// followerGet serves a remotely-owned key through the local follower
// cache: an entry inside the staleness bound answers locally; otherwise one
// conditional GET on the owner, holding the entry's version (zero without
// a usable entry), confirms the entry or fetches the current value, which
// a read quorum of the owner cell vouches for either way. The legs' spans
// fold into total: local-cell spans first, then the owner cell's,
// bracketed by a follower-revalidate annotation (an aged entry) or a
// tier-forward one (no entry).
func (c *Client) followerGet(ctx context.Context, owner string, key []byte, total *fabric.OpTrace) ([]byte, bool, error) {
	raw, found, tr, err := c.local.GetTraced(ctx, followerKey(key))
	fold(total, tr, 0, 0)
	var have truetime.Version
	var payload []byte
	if err == nil && found {
		if ver, stamp, p, ok := decodeFollower(raw); ok {
			if age := c.now() - stamp; age <= c.opt.StaleBoundNs {
				c.m.FollowerHits.Add(1)
				fold(total, fabric.OpTrace{}, trace.SpanFollowerHit, uint32(age/1000))
				return p, true, nil
			}
			have, payload = ver, p
		}
	}
	if have.Zero() {
		c.m.FollowerMisses.Add(1)
	}
	val, ver, found, otr, err := c.cls[owner].GetIfChanged(ctx, key, have)
	code, arg := trace.SpanFollowerReval, uint32(0) // confirmed
	switch {
	case have.Zero():
		code, arg = trace.SpanTierForward, c.cellIdx[owner]
	case err == nil && !found:
		arg = 2 // erased at the owner
	case err == nil && ver != have:
		arg = 1 // refreshed with a newer value
	}
	fold(total, otr, code, arg)
	switch {
	case err != nil:
		return nil, false, err
	case !found:
		if !have.Zero() {
			_ = c.local.Erase(ctx, followerKey(key))
		}
		return nil, false, nil
	case ver == have:
		c.m.FollowerRevalids.Add(1)
		c.storeFollower(ctx, key, payload, ver)
		return payload, true, nil
	}
	if !have.Zero() {
		c.m.FollowerRefreshes.Add(1)
	}
	c.storeFollower(ctx, key, val, ver)
	return val, true, nil
}

// mutate routes one mutation to key's owning cell — the ack means the
// owning cell (under the ring in effect at ack time) holds it — re-
// routing after a failed cell op. run performs the op on the owner's
// client; settle is the op's follower-cache side effect, run after a
// remote owner acked when FollowerReads is on.
func (c *Client) mutate(ctx context.Context, k trace.Kind, key []byte, run func(context.Context, *client.Client) (fabric.OpTrace, error), settle func(context.Context)) error {
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
		tr, err := run(ctx, c.cls[owner])
		c.ownerLeg(total, owner, tr)
		if err == nil {
			c.t.router.NoteSuccess(owner)
			if c.opt.FollowerReads && owner != c.opt.Local {
				settle(ctx)
			}
			c.finish(sc, total, k, trace.TransportRPC, uint32(attempt+1))
			return nil
		}
		lastErr = err
		c.noteFailed(owner)
	}
	return lastErr
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
	err := c.mutate(ctx, trace.KindSet, key,
		func(ctx context.Context, cl *client.Client) (tr fabric.OpTrace, err error) {
			ver, tr, err = cl.SetVersionedTraced(ctx, key, value)
			return tr, err
		},
		func(ctx context.Context) { c.storeFollower(ctx, key, value, ver) })
	if err != nil {
		return truetime.Version{}, err
	}
	return ver, nil
}

// Erase removes key from its owning cell (and the local follower cache).
func (c *Client) Erase(ctx context.Context, key []byte) error {
	return c.mutate(ctx, trace.KindErase, key,
		func(ctx context.Context, cl *client.Client) (fabric.OpTrace, error) { return cl.EraseTraced(ctx, key) },
		func(ctx context.Context) { _ = c.local.Erase(ctx, followerKey(key)) })
}

// Cas compare-and-swaps on the owning cell. The follower cache entry is
// dropped (not updated) on success: Cas does not return the new version,
// so the next follower read revalidates.
func (c *Client) Cas(ctx context.Context, key, value []byte, expected truetime.Version) (bool, error) {
	var applied bool
	err := c.mutate(ctx, trace.KindCas, key,
		func(ctx context.Context, cl *client.Client) (tr fabric.OpTrace, err error) {
			applied, tr, err = cl.CasTraced(ctx, key, value, expected)
			return tr, err
		},
		func(ctx context.Context) {
			if applied {
				_ = c.local.Erase(ctx, followerKey(key))
			}
		})
	return applied && err == nil, err
}

func followerKey(key []byte) []byte {
	fk := make([]byte, len(followerPrefix)+len(key))
	copy(fk, followerPrefix)
	copy(fk[len(followerPrefix):], key)
	return fk
}

// storeFollower writes the wrapped entry into the local cell; failures
// are ignored (the follower cache is best-effort).
func (c *Client) storeFollower(ctx context.Context, key, payload []byte, ver truetime.Version) {
	_ = c.local.Set(ctx, followerKey(key), encodeFollower(ver, c.now(), payload))
}

// follower is a follower-cache entry: the owner's version for
// revalidation, the local-clock freshness stamp, and the payload, which
// aliases the entry it was decoded from.
type follower struct {
	Version truetime.Version `wire:"1,flat"`
	Stamp   uint64           `wire:"4"`
	Payload []byte           `wire:"5"`
}

func encodeFollower(ver truetime.Version, stamp uint64, payload []byte) []byte {
	return wire.Append(nil, &follower{ver, stamp, payload})
}

// decodeFollower reads an entry; ok is false for a corrupt or foreign one,
// which the caller revalidates as if it held nothing.
func decodeFollower(b []byte) (ver truetime.Version, stamp uint64, payload []byte, ok bool) {
	var f follower
	if wire.Decode(b, &f) != nil {
		return truetime.Version{}, 0, nil, false
	}
	return f.Version, f.Stamp, f.Payload, true
}
