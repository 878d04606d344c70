package client

// Mutations: every SET/ERASE/CAS is an RPC to all replicas at a client-
// nominated VersionNumber (§5.2), retried through the same classify-and-
// repair mechanism as GETs.

import (
	"context"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// Set installs key=value on every replica at a fresh client-nominated
// VersionNumber (§5.2). It succeeds when a write quorum acknowledges.
func (c *Client) Set(ctx context.Context, key, value []byte) error {
	_, err := c.SetVersioned(ctx, key, value)
	return err
}

// SetVersioned is Set returning the nominated version (for later CAS).
func (c *Client) SetVersioned(ctx context.Context, key, value []byte) (truetime.Version, error) {
	v, _, _, err := c.mutate(ctx, trace.KindSet, key, value, truetime.Version{}, false)
	return v, err
}

// SetVersionedTraced is SetVersioned plus the op's modelled latency trace.
func (c *Client) SetVersionedTraced(ctx context.Context, key, value []byte) (truetime.Version, fabric.OpTrace, error) {
	v, tr, _, err := c.mutate(ctx, trace.KindSet, key, value, truetime.Version{}, true)
	return v, tr, err
}

// Erase removes key on every replica, tombstoning the version (§5.2).
func (c *Client) Erase(ctx context.Context, key []byte) error {
	_, _, _, err := c.mutate(ctx, trace.KindErase, key, nil, truetime.Version{}, false)
	return err
}

// EraseTraced is Erase plus the op's modelled latency trace.
func (c *Client) EraseTraced(ctx context.Context, key []byte) (fabric.OpTrace, error) {
	_, tr, _, err := c.mutate(ctx, trace.KindErase, key, nil, truetime.Version{}, true)
	return tr, err
}

// Cas installs value only where the stored version equals expected (§5.2).
// It reports whether the swap applied. CAS rides the same hardened retry
// loop as Set/Erase; a retry after a partially-acknowledged attempt
// recognizes its own nominated version as applied, so the decision stays
// stable across attempts.
func (c *Client) Cas(ctx context.Context, key, value []byte, expected truetime.Version) (bool, error) {
	_, _, swapped, err := c.mutate(ctx, trace.KindCas, key, value, expected, false)
	return swapped, err
}

// CasTraced is Cas plus the op's modelled latency trace.
func (c *Client) CasTraced(ctx context.Context, key, value []byte, expected truetime.Version) (bool, fabric.OpTrace, error) {
	_, tr, swapped, err := c.mutate(ctx, trace.KindCas, key, value, expected, true)
	return swapped, tr, err
}

// Mutate runs one SET, ERASE or CAS and returns the version it nominated,
// also when it fails, and for a CAS whether it swapped (internal/history).
func (c *Client) Mutate(ctx context.Context, kind trace.Kind, key, value []byte, expected truetime.Version) (truetime.Version, bool, error) {
	v, _, swapped, err := c.mutate(ctx, kind, key, value, expected, false)
	return v, swapped, err
}

// mutSpans sizes a mutation's span buffer: three RPC legs of four spans (five
// at a loaded server) and the quorum-wait annotation; the quiet path uses 13.
const mutSpans = 16

// mutate runs one mutation end to end on a leased op record: a fan-out to
// every cohort member that must collect a write quorum of acknowledgements
// (applied or superseded-by-newer both count: the mutation's ordering is
// settled either way, §5.2/§5.3), retried through classifyAndRepair exactly
// like GETs — config refresh, re-handshake, budgeted backoff — so every
// mutation hazard shares the one §3 repair mechanism; then the epilogue
// every kind shares. For CAS, swapped reports that the quorum which
// decided the ack applied it (mutVerdict).
func (c *Client) mutate(ctx context.Context, kind trace.Kind, key, value []byte, expected truetime.Version, keep bool) (v truetime.Version, total fabric.OpTrace, swapped bool, err error) {
	method := proto.MethodSet
	switch kind {
	case trace.KindSet:
		c.M.Sets.Inc()
	case trace.KindErase:
		method = proto.MethodErase
	case trace.KindCas:
		method = proto.MethodCas
	}
	v = c.gen.Next()
	op := c.ops.Take()
	defer c.ops.Put(op)
	sc, ctx := c.traceOp(ctx, op, kind)
	x := legExec{c: c, ctx: ctx, op: op, h: c.opt.Hash(key)} // the op's legs, and its trace x.tr
	// The op's one span buffer, as in get.
	if x.tr.Spans = op.Spans[:0]; keep {
		x.tr.Spans = make([]fabric.Span, 0, mutSpans)
	}
	err = ErrUnavailable
	attempt, won, at := 0, false, ackPtr{}
	for ; attempt <= c.opt.Retries; attempt++ {
		if ctx.Err() != nil {
			err = ErrExhausted
			break
		}
		if attempt > 0 {
			if err = c.beginRetry(&x.tr, attempt); err != nil {
				break
			}
		}
		won, at, err = c.mutateOnce(&x, method, proto.SetReq{Key: key, Value: value, Expected: expected, Version: v})
		if err == nil {
			c.opt.Budget.Credit()
			break
		}
		if proto.NotStored(err) {
			break // no replica can store the entry: a retry would fail alike
		}
		c.classifyAndRepair(err)
	}
	// Even a failed fan-out may have applied somewhere: the cached copy is
	// unconditionally suspect after our own mutation, and so is the
	// remembered pointer unless a quorum applied the write (won, which only
	// a successful attempt sets) and an ack named where it went.
	c.nearInvalidate(key)
	if won && !at.ptr.Nil() {
		c.ptrs.put(x.h, at.cfg, at.shard, at.ptr)
	} else {
		c.ptrs.drop(x.h)
	}
	if kind != trace.KindCas {
		c.M.SetLatency.Record(x.tr.Ns)
	} else {
		swapped = err == nil && won
	}
	if sc != nil && err == nil {
		c.opt.Tracer.Record(sc.OpID, kind, trace.TransportRPC, uint32(attempt+1), x.tr)
	}
	return v, x.tr, swapped, err
}

// mutateOnce is one fan-out to the cohort — mid-resize, to the union of
// both epochs' cohorts. A leg whose stored version already equals the
// nominated version counts as applied: a retry after a partially-
// acknowledged earlier attempt must recognize its own write (CAS would
// otherwise read as failed on the replicas it had won).
//
// Quorum is accounted per epoch: an ack from a sealed old-cohort member
// must NOT count toward the old-epoch quorum (its journal has drained —
// the write would exist only where handoff can no longer see it), so
// MutateResp.Sealed legs count only toward the pending epoch when they
// serve there. The mutation acks when either epoch reaches its quorum, and
// applied reports that the deciding epoch's quorum applied it
// (mutVerdict). The attempt is appended to the op's trace: its legs fan
// out on x from where the trace ends.
//
// Every kind sends req, one SetReq; method names the kind. Each leg
// carries its backend's queued access records (§4.2) in place of a Touch
// RPC. Outside a resize, at is the fastest ack's MutateResp.Ptr that
// names where its replica put the value (ptrs.go).
func (c *Client) mutateOnce(x *legExec, method string, req proto.SetReq) (applied bool, at ackPtr, err error) {
	cfg := c.Config()
	var legBuf [2 * config.MaxReplicas]mutLeg
	legs := mutationLegs(cfg, x.h, legBuf[:0])

	origin := x.tr.Ns
	var legArr [8]uint64
	legNs := legArr[:0]
	var ackBuf [2 * config.MaxReplicas]mutAck
	acks := ackBuf[:0]
	// Requests are built per attempt so each fan-out stamps the client's
	// CURRENT ConfigID — backends reject stale stamps, which is what
	// forces a mutate-only client (no bucket reads to trip the §6.1
	// stamp) to refresh before writing into a superseded epoch. Pending-
	// epoch legs carry the Pending flag so a sealed backend that owns the
	// key in the new epoch still accepts. Legs with no records to carry
	// share one request per flag.
	req.ConfigID = cfg.ID
	build := func(pending bool, touches []byte) []byte {
		req.Pending, req.Touches = pending, touches
		return x.op.Keep(req.AppendTo(x.op.Free()))
	}
	var plainBytes, pendingBytes []byte
	// Every leg is started before the first is waited for, so that legs
	// over a socket overlap; the acks are read in leg order.
	var pend [2 * config.MaxReplicas]leg
	for i, leg := range legs {
		var body []byte
		c.takeTouches(leg.addr, func(records []byte) { body = build(leg.inPending, records) })
		if body == nil {
			shared := &plainBytes
			if leg.inPending {
				shared = &pendingBytes
			}
			if *shared == nil {
				*shared = build(leg.inPending, nil)
			}
			body = *shared
		}
		pend[i] = x.start(legMutate, member{rep: replica{addr: leg.addr}, method: method, req: body}, origin)
	}
	var lastErr error
	for i, leg := range legs {
		resp, ltr, err := x.wait(&pend[i])
		if err != nil {
			// A refused entry is the replica's answer, not its failure.
			c.health.note(leg.addr, !proto.NotStored(err))
			lastErr = err
			continue
		}
		mr, merr := proto.UnmarshalMutateResp(resp)
		if merr != nil {
			lastErr = merr
			continue
		}
		c.health.note(leg.addr, false)
		acks = append(acks, mutAck{inOld: leg.inOld, inPending: leg.inPending, sealed: mr.Sealed, applied: mr.Applied || mr.Stored == req.Version})
		legNs = append(legNs, ltr.Ns)
		if cfg.Pending == nil && mr.Applied && !mr.Ptr.Nil() && (at.ptr.Nil() || ltr.Ns < at.ns) {
			at = ackPtr{cfg: cfg.ID, shard: leg.shard, ptr: mr.Ptr, ns: ltr.Ns}
		}
	}
	q := cfg.Mode.Quorum()
	// The pending-epoch quorum only DECIDES the ack once reads route to
	// the pending owners (readRoute's authority rule). Before that flip a
	// pending-only quorum would be invisible: readers still consult the
	// old cohort, so a write acked on pending legs alone — possible when
	// a restamp race bounces healthy old legs — reads as lost. Until
	// authority flips the old epoch must ack; its sealed members are
	// discounted by MutateResp.Sealed, and once R−Q+1 of the cohort are
	// sealed an old quorum is unreachable, forcing the refresh-and-retry
	// that lands the write under the authoritative epoch.
	pendingDecides := false
	if cfg.Pending != nil {
		pendingDecides = cfg.PendingAuthoritative(cfg.Cohort(int(x.h.Hi % uint64(cfg.Shards))))
	}
	ok, applied := mutVerdict(acks, q, pendingDecides)
	if !ok {
		if lastErr == nil {
			lastErr = ErrUnavailable
		}
		return false, ackPtr{}, lastErr
	}
	// A mutation completes when the write quorum has acked.
	settleFanout(&x.tr, legNs, q, 0)
	return applied, at, nil
}

// ackPtr is where an acking replica, the cohort's shard, put a mutation's
// value under the config cfg, and its leg's latency.
type ackPtr struct {
	cfg   uint64
	shard int
	ptr   layout.Pointer
	ns    uint64
}
