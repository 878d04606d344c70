package client

// Mutations: every SET/ERASE/CAS is an RPC to all replicas at a client-
// nominated VersionNumber (§5.2), retried through the same classify-and-
// repair mechanism as GETs.

import (
	"context"

	"cliquemap/internal/core/config"
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
		c.M.Erases.Inc()
		method = proto.MethodErase
	case trace.KindCas:
		c.M.CasOps.Inc()
		method = proto.MethodCas
	}
	v = c.gen.Next()
	op := c.ops.Take()
	defer c.ops.Put(op)
	build := func(pending bool, cfgID uint64) []byte {
		switch kind {
		case trace.KindErase:
			return op.Keep(proto.EraseReq{Key: key, Version: v, Pending: pending, ConfigID: cfgID}.AppendTo(op.Free()))
		case trace.KindCas:
			return op.Keep(proto.CasReq{Key: key, Value: value, Expected: expected, Version: v, Pending: pending, ConfigID: cfgID}.AppendTo(op.Free()))
		}
		return op.Keep(proto.SetReq{Key: key, Value: value, Version: v, Pending: pending, ConfigID: cfgID}.AppendTo(op.Free()))
	}
	sc, ctx := c.traceOp(ctx, op, kind)
	// The op's one span buffer, as in get.
	if total.Spans = op.Spans[:0]; keep {
		total.Spans = make([]fabric.Span, 0, mutSpans)
	}
	err = ErrUnavailable
	attempt, won := 0, false
	for ; attempt <= c.opt.Retries; attempt++ {
		if ctx.Err() != nil {
			err = ErrExhausted
			break
		}
		if attempt > 0 {
			if err = c.beginRetry(&total, attempt); err != nil {
				break
			}
		}
		won, err = c.mutateOnce(ctx, op, key, method, build, v, &total)
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
	// unconditionally suspect after our own mutation.
	c.nearInvalidate(key)
	c.observe(kind, trace.TransportRPC, total.Ns, err)
	if kind != trace.KindCas {
		c.M.SetLatency.Record(total.Ns)
	} else {
		swapped = err == nil && won
	}
	if sc != nil && err == nil {
		c.opt.Tracer.Record(sc.OpID, kind, trace.TransportRPC, uint32(attempt+1), total)
	}
	return v, total, swapped, err
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
// (mutVerdict). The attempt is appended to tr, the op's trace: its legs
// fan out from where tr ends, reading into op's storage.
func (c *Client) mutateOnce(ctx context.Context, op *trace.OpLease, key []byte, method string, build func(pending bool, cfgID uint64) []byte, nominated truetime.Version, tr *fabric.OpTrace) (applied bool, err error) {
	cfg := c.Config()
	h := c.opt.Hash(key)
	var legBuf [2 * config.MaxReplicas]mutLeg
	legs := mutationLegs(cfg, h, legBuf[:0])

	origin := tr.Ns
	var legArr [8]uint64
	legNs := legArr[:0]
	var ackBuf [2 * config.MaxReplicas]mutAck
	acks := ackBuf[:0]
	// Requests are built per attempt so each fan-out stamps the client's
	// CURRENT ConfigID — backends reject stale stamps, which is what
	// forces a mutate-only client (no bucket reads to trip the §6.1
	// stamp) to refresh before writing into a superseded epoch.
	var plainBytes, pendingBytes []byte
	var lastErr error
	for _, leg := range legs {
		var body []byte
		if leg.inPending {
			// Pending-epoch legs carry the Pending flag so a sealed
			// backend that owns the key in the new epoch still accepts.
			if pendingBytes == nil {
				pendingBytes = build(true, cfg.ID)
			}
			body = pendingBytes
		} else {
			if plainBytes == nil {
				plainBytes = build(false, cfg.ID)
			}
			body = plainBytes
		}
		resp, ltr, err := c.call(ctx, op, leg.addr, method, body)
		if err != nil {
			if !proto.NotStored(err) { // a refused entry is no fault of the replica's
				c.noteReplicaFailure(leg.addr)
			}
			lastErr = err
			continue
		}
		mr, merr := proto.UnmarshalMutateResp(resp)
		if merr != nil {
			lastErr = merr
			continue
		}
		c.noteReplicaSuccess(leg.addr)
		acks = append(acks, mutAck{inOld: leg.inOld, inPending: leg.inPending, sealed: mr.Sealed, applied: mr.Applied || mr.Stored == nominated})
		legNs = append(legNs, ltr.Ns)
		tr.AddBytes(int(ltr.Bytes))
		// Replica legs fan out together: spans share the attempt's origin.
		tr.AppendSpans(ltr.Spans, origin)
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
		pendingDecides = cfg.PendingAuthoritative(cfg.Cohort(int(h.Hi % uint64(cfg.Shards))))
	}
	ok, applied := mutVerdict(acks, q, pendingDecides)
	if !ok {
		if lastErr == nil {
			lastErr = ErrUnavailable
		}
		return false, lastErr
	}
	// A mutation completes when the write quorum has acked.
	settleFanout(tr, legNs, q, 0)
	return applied, nil
}
