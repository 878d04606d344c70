package client

// GET: the retry loop around one fetch → vote → data attempt, plus the
// RPC-only lookups (final fallback, follower reads) and batching.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// opSpans sizes a GET's span buffer: a three-leg fan-out of three-span
// NIC legs, the index-fetch and quorum-wait annotations, and one dependent
// data leg with its annotation (2×R, the longest quiet-path trace) is 15.
const opSpans = 16

// Get looks up key, transparently retrying transient hazards.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	v, found, _, err := c.get(ctx, key, 0, false)
	return v, found, err
}

// GetTraced is Get plus the op's modelled latency trace.
func (c *Client) GetTraced(ctx context.Context, key []byte) ([]byte, bool, fabric.OpTrace, error) {
	return c.get(ctx, key, 0, true)
}

// get runs one GET on a leased op record; only keep gives its trace spans
// that outlive the op. pin is the virtual instant the op starts at (0 =
// now): each round of legs is pinned to pin plus the op's elapsed modelled
// time, so a batch's keys share one origin. A hit reports its access once
// the record is back, so a flush the access fills can lease it.
func (c *Client) get(ctx context.Context, key []byte, pin uint64, keep bool) (value []byte, found bool, tr fabric.OpTrace, err error) {
	op := c.ops.Take()
	defer func() {
		c.ops.Put(op)
		if found {
			c.noteTouch(key, pin != 0)
		}
	}()
	c.M.Gets.Inc()
	var total fabric.OpTrace
	if c.opt.Observer != nil {
		defer func() { c.observe(trace.KindGet, c.Transport(), total.Ns, err) }()
	}
	sc, ctx := c.traceOp(ctx, op, trace.KindGet)
	// The op's one span buffer, the record's unless the caller keeps the
	// trace. Every stage below appends to it, and opSpans covers a full
	// fan-out plus a data leg: an op that does not retry never grows it.
	if total.Spans = op.Spans[:0]; keep {
		total.Spans = make([]fabric.Span, 0, opSpans)
	}
	// Near-cache fast path: a cached hot-key value serves after one
	// index-only revalidation round (1 RTT, no data leg). An inconclusive
	// round falls through to the full path with its legs already billed.
	if c.near != nil {
		nval, nfound, served := c.nearGet(ctx, op, key, pin, &total)
		if served {
			c.finishGet(sc, nfound, c.Transport(), 1, &total)
			return nval, nfound, total, nil
		}
	}
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if ctx.Err() != nil {
			return nil, false, total, ErrExhausted
		}
		if attempt > 0 {
			if err := c.beginRetry(&total, attempt); err != nil {
				return nil, false, total, err
			}
		}
		if sc != nil {
			sc.Attempt = uint32(attempt)
		}
		attemptStart := total.Ns
		val, ok, wver, aerr := c.attemptGet(ctx, op, key, after(pin, total.Ns), &total)
		if aerr == nil {
			c.opt.Budget.Credit()
			if ok {
				c.nearStore(key, val, wver)
			}
			c.finishGet(sc, ok, c.Transport(), uint32(attempt+1), &total)
			return val, ok, total, nil
		}
		if sc != nil {
			total.Annotate(trace.SpanRetry, uint32(attempt), attemptStart, total.Ns-attemptStart)
		}
		c.classifyAndRepair(aerr)
	}
	// Final fallback: a plain RPC lookup against any reachable replica —
	// CliqueMap always keeps an RPC path for lookups (§3, Table 1). The
	// fallback is itself another attempt, so it too costs a retry token.
	if !c.opt.NoFallback {
		if err := c.takeRetryToken(); err != nil {
			return nil, false, total, err
		}
		if g, ftr, ferr := c.rpcGetAny(ctx, op, key); ferr == nil {
			total.Sequence(ftr)
			c.opt.Budget.Credit()
			c.M.RPCFallbacks.Inc()
			c.finishGet(sc, g.Found, trace.TransportRPC, uint32(c.opt.Retries+2), &total)
			return g.Value, g.Found, total, nil
		}
	}
	c.M.Inquorate.Inc()
	return nil, false, total, fmt.Errorf("%w for key %q", ErrInquorate, key)
}

// finishGet is the one success epilogue of a GET, however it was served
// (near-cache, a quorum attempt, the RPC fallback): count the outcome,
// record latency and the trace.
func (c *Client) finishGet(sc *trace.SpanContext, found bool, transport trace.Transport, attempts uint32, total *fabric.OpTrace) {
	if found {
		c.M.Hits.Inc()
	} else {
		c.M.Misses.Inc()
	}
	c.M.GetLatency.Record(total.Ns)
	if sc != nil {
		c.opt.Tracer.Record(sc.OpID, trace.KindGet, transport, attempts, *total)
	}
}

// attemptGet performs one lookup attempt, appending it to the op's trace:
// fetch views from the read cohort, vote, take the data from a quorum
// member. On a hit it also returns the quorum-winning version, which feeds
// the near-cache. pin is the attempt's virtual start (0 = now).
func (c *Client) attemptGet(ctx context.Context, op *trace.OpLease, key []byte, pin uint64, tr *fabric.OpTrace) ([]byte, bool, truetime.Version, error) {
	cfg := c.Config()
	h := c.opt.Hash(key)
	how := c.fetchFor(key)
	var viewArr [8]indexView
	// at is the virtual instant the attempt's legs are pinned to; on the
	// op's own timeline that instant is origin.
	origin := tr.Ns
	views, at := c.fetchViews(ctx, op, pin, cfg, readRoute(cfg, h), key, h, how, viewArr[:0])

	winner, err := quorum(tr, views, cfg.Mode.Quorum())
	if err != nil {
		return nil, false, truetime.Version{}, err
	}
	if winner.Zero() {
		// Miss quorum. If any replica flagged overflow, the key may live
		// in a side table reachable only via RPC (§4.2).
		for i := range views {
			if v := &views[i]; v.err == nil && v.overflow {
				g, ftr, ferr := c.rpcGetAt(ctx, op, v.rep.addr, key, cfg.ID)
				tr.Sequence(ftr)
				if ferr == nil {
					c.M.RPCFallbacks.Inc()
					return g.Value, g.Found, g.Version, nil
				}
			}
		}
		return nil, false, truetime.Version{}, nil
	}
	val, err := c.readData(op, at, origin, key, how, views, winner, tr)
	if err != nil {
		return nil, false, truetime.Version{}, err
	}
	return val, true, winner, nil
}

// cand is one data source: a quorum member holding the winning version,
// named by its position in the views.
type cand struct {
	view    int
	ns      uint64 // its index leg's latency
	demoted bool
}

// readData is the data stage: take the winning version's value from a
// quorum member, failing over along the candidate list — a torn, corrupt,
// or unreachable copy costs one more dependent read instead of a whole-op
// retry. The checksum (§3) is the only corruption defense, so every
// absorbed failure is counted. Dependent legs are pinned relative to at,
// which sits at origin on tr's timeline.
func (c *Client) readData(op *trace.OpLease, at, origin uint64, key []byte, how fetch, views []indexView, winner truetime.Version, tr *fabric.OpTrace) ([]byte, error) {
	// Candidates fastest first (§5.1 — speculate on the first responder),
	// with health-demoted members sorted last so a browned-out backend
	// serves data only when no healthy member can.
	var candArr [8]cand
	n := 0
	for i := range views {
		v := &views[i]
		if v.err == nil && v.present && v.entry.Version == winner && n < len(candArr) {
			if !how.oneSided() {
				// The server validated what it sent: the value serves as is,
				// out of op's arena as the caller's copy when it came by RPC.
				if how == fetchRPC {
					return slices.Clone(v.data), nil
				}
				return v.data, nil
			}
			candArr[n] = cand{view: i, ns: v.trace.Ns, demoted: c.replicaDemoted(v.rep.addr)}
			n++
		}
	}
	if n == 0 {
		return nil, ErrInquorate
	}
	cands := candArr[:n]
	slices.SortStableFunc(cands, func(a, b cand) int {
		if a.demoted != b.demoted {
			if b.demoted {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ns, b.ns)
	})
	// Hot-key spread (on with the near-cache): rotate the healthy prefix so
	// a promoted key's data reads load-balance across the quorum instead of
	// always landing on the fastest (soon to be hottest) replica. Every
	// candidate holds the winning version, so no rotation can address a
	// replica that lacks it. Demoted members keep their sorted-last
	// position; failover order is unchanged.
	if c.near != nil && len(cands) > 1 && c.isPromoted(key) {
		healthy := 0
		for healthy < len(cands) && !cands[healthy].demoted {
			healthy++
		}
		if healthy > 1 {
			if r := int(c.rand64() % uint64(healthy)); r > 0 {
				var rot [8]cand
				copy(rot[:healthy], cands[:healthy])
				for i := 0; i < healthy; i++ {
					cands[i] = rot[(i+r)%healthy]
				}
				c.M.SpreadReads.Inc()
			}
		}
	}

	var lastErr error = ErrInquorate
	for ci, cd := range cands {
		v := &views[cd.view]
		last := ci == len(cands)-1
		var raw []byte
		switch {
		case v.data != nil:
			raw = v.data
		case how == fetchScar && v.rep.conn.SupportsScar():
			// Scan missed on the wire (e.g. racing rewrite): retryable. A
			// connection that cannot scan (1RMA) got a plain bucket Read in
			// fetchIndex and takes the dependent read below.
			lastErr = layout.ErrTornRead
			continue
		default:
			c.chargeCPU(cpu2xR / 2)
			e := v.entry
			dataStart := tr.Ns
			data, dtr, derr := readLeg(op, v.rep.conn, after(at, dataStart-origin), e.Ptr.Window, int(e.Ptr.Offset), int(e.Ptr.Size))
			if derr != nil {
				tr.Sequence(dtr)
				c.noteReplicaFailure(v.rep.addr)
				lastErr = wrapTransportErr(v.rep.addr, derr)
				if !last {
					c.M.Failovers.Inc()
				}
				continue
			}
			c.observeDataNs(dtr.Ns)
			// Hedge: the primary's read exceeded the rolling threshold, so
			// (in wall-time terms) a backup read launched at +hedgeAfter
			// may complete first; the op takes whichever finishes sooner.
			if hedgeAfter := c.hedgeAfterNs(); ci == 0 && !last && hedgeAfter > 0 && dtr.Ns > hedgeAfter {
				c.M.Hedges.Inc()
				b := &views[cands[1].view]
				hdata, htr, herr := readLeg(op, b.rep.conn, after(at, dataStart-origin+hedgeAfter), b.entry.Ptr.Window, int(b.entry.Ptr.Offset), int(b.entry.Ptr.Size))
				if herr == nil && hedgeAfter+htr.Ns < dtr.Ns {
					if hval, err := c.openEntry(b.rep.addr, hdata, key, &winner); err == nil {
						c.M.HedgeWins.Inc()
						tr.Annotate(trace.SpanHedge, uint32(b.rep.shard), dataStart+hedgeAfter, htr.Ns)
						tr.AddBytes(int(htr.Bytes))
						tr.Add(hedgeAfter + htr.Ns)
						return hval, nil
					}
				}
			}
			tr.Sequence(dtr)
			tr.Annotate(trace.SpanDataRead, uint32(v.rep.shard), dataStart, dtr.Ns)
			raw = data
		}
		val, err := c.openEntry(v.rep.addr, raw, key, &winner)
		if err != nil {
			lastErr = err
			if !last {
				c.M.TornRetries.Inc() // absorbed by failover, not a re-attempt
				c.M.Failovers.Inc()
			}
			continue
		}
		c.noteReplicaSuccess(v.rep.addr)
		return val, nil
	}
	return nil, lastErr
}

// after pins a dependent leg ns past the op's virtual start (0 = unpinned).
func after(at, ns uint64) uint64 {
	if at == 0 {
		return 0
	}
	return at + ns
}

// openEntry is the client-side validation of DataEntry bytes read from
// addr (§3, §5.1): checksum, full-key match, the data must carry the
// quorum's version, then decompress.
func (c *Client) openEntry(addr string, raw, key []byte, winner *truetime.Version) ([]byte, error) {
	de, err := layout.DecodeDataEntry(raw)
	if err != nil {
		// ErrTornRead: checksum caught a race or a flipped bit.
		c.noteReplicaFailure(addr)
		return nil, err
	}
	if err := de.ValidateAgainst(key, winner); err != nil {
		return nil, err
	}
	return de.MaterializeValue()
}

// rpcGetAny tries an RPC lookup on each read-cohort member until one
// answers; every leg tried is billed.
func (c *Client) rpcGetAny(ctx context.Context, op *trace.OpLease, key []byte) (proto.GetResp, fabric.OpTrace, error) {
	cfg := c.Config()
	var tr fabric.OpTrace
	var lastErr error = ErrUnavailable
	rt := readRoute(cfg, c.opt.Hash(key))
	for _, addr := range rt.addrs[:rt.n] {
		if addr == "" {
			continue
		}
		g, ltr, err := c.rpcGetAt(ctx, op, addr, key, cfg.ID)
		tr.Sequence(ltr)
		if err == nil {
			return g, tr, nil
		}
		lastErr = err
	}
	return proto.GetResp{}, tr, lastErr
}

// GetVersionedTraced is a single-replica RPC lookup returning the stored
// value, its version, and the op's modelled latency trace. It is the
// federation tier's follower-read primitive: the version lets a non-owner
// cell revalidate a cached entry against the owner, a single replica (no
// quorum) is acceptable because the tier bounds staleness and
// revalidates, and the trace lets the tier edge fold the owner cell's
// revalidation legs into the federated op's single trace. Not a
// substitute for Get on the quorum read path.
func (c *Client) GetVersionedTraced(ctx context.Context, key []byte) ([]byte, truetime.Version, bool, fabric.OpTrace, error) {
	op := c.ops.Take()
	defer c.ops.Put(op)
	var total fabric.OpTrace
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			// Same layered repair as the quorum paths: a resize or handoff
			// bumps the config epoch underneath us and the backend bounces
			// the stale ConfigID; refresh and re-route before retrying.
			c.classifyAndRepair(lastErr)
		}
		g, tr, err := c.rpcGetAny(ctx, op, key)
		total.Sequence(tr)
		if err == nil {
			return g.Value, g.Version, g.Found, total, nil
		}
		lastErr = err
	}
	return nil, truetime.Version{}, false, total, lastErr
}

// GetBatch looks up many keys as one logical op (§7.1: Ads/Geo fetches are
// highly batched). Every key's legs are pinned to one virtual instant, the
// way a GET pins its replica fan-out, so the simulation runs the keys one
// after another while the model overlaps them: the batch trace is the
// slowest key, and the keys' responses queue on the shared client downlink
// — the incast the fabric model charges for. Nothing the loop sends at the
// clock's now may precede a pinned leg: access records wait for the loop
// to end, and an RPC a key needs (a Hello, a fallback) re-pins the keys
// after it to now. The error is the first by key order; the other keys'
// results stand.
func (c *Client) GetBatch(ctx context.Context, keys [][]byte) (values [][]byte, found []bool, tr fabric.OpTrace, err error) {
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	var pin uint64
	for i, k := range keys {
		if c.now != nil && (pin == 0 || pin < c.rpcAt.Load()) {
			pin = c.now()
		}
		v, ok, ktr, kerr := c.get(ctx, k, pin, true)
		values[i], found[i] = v, ok
		if kerr != nil && err == nil {
			err = kerr
		}
		tr.Merge(ktr)
	}
	if pin != 0 {
		c.flushTouches(ctx, c.opt.TouchBatch)
	}
	return values, found, tr, err
}
