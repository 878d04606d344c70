package client

// GET: the retry loop around one fetch → vote → data attempt (the last
// attempt, the final fallback, fetches over RPC), behind the index-only
// round that revalidates a version the caller or the near-cache holds,
// plus batching.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"cliquemap/internal/core/layout"
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
	v, _, found, _, err := c.get(ctx, key, truetime.Version{}, 0, false)
	return v, found, err
}

// GetTraced is Get plus the op's modelled latency trace.
func (c *Client) GetTraced(ctx context.Context, key []byte) ([]byte, bool, fabric.OpTrace, error) {
	v, _, found, tr, err := c.get(ctx, key, truetime.Version{}, 0, true)
	return v, found, tr, err
}

// GetIfChanged is a conditional GET for a caller that holds key's value at
// version have (zero: nothing held): it returns the quorum-winning version
// with the value, and the op's modelled latency trace. A read that
// confirms have returns no value — the caller's copy stands. It is the
// federation tier's follower-cache revalidation: the version lets a
// non-owner cell revalidate a cached entry against the owner, and the
// trace lets the tier edge fold the owner cell's legs into the federated
// op's one trace.
func (c *Client) GetIfChanged(ctx context.Context, key []byte, have truetime.Version) ([]byte, truetime.Version, bool, fabric.OpTrace, error) {
	val, ver, found, tr, err := c.get(ctx, key, have, 0, true)
	if found && ver == have {
		val = nil
	}
	return val, ver, found, tr, err
}

// get runs one GET on a leased op record; only keep gives its trace spans
// that outlive the op. have is the version the caller already holds (0 =
// none; the near-cache fills it from its entry): on a one-sided strategy
// one index-only round that confirms it, or agrees on a miss, serves the
// GET, and any other round falls through to the attempt loop with its
// legs already billed. pin is the virtual instant the op starts at (0 =
// now): each round of legs is pinned to pin plus the op's elapsed modelled
// time, so a batch's keys share one origin. A hit reports its access once
// the record is back, so a flush the access fills can lease it; the flush
// runs under the caller's ctx, as the op's node is back in the pool.
func (c *Client) get(ctx context.Context, key []byte, have truetime.Version, pin uint64, keep bool) (value []byte, ver truetime.Version, found bool, tr fabric.OpTrace, err error) {
	op := c.ops.Take()
	defer func(ctx context.Context) {
		c.ops.Put(op)
		if found {
			c.noteTouch(ctx, key, pin != 0)
		}
	}(ctx)
	c.M.Gets.Inc()
	sc, ctx := c.traceOp(ctx, op, trace.KindGet)
	x := legExec{c: c, ctx: ctx, op: op, h: c.opt.Hash(key)} // the op's legs, and its trace x.tr
	// The op's one span buffer, the record's unless the caller keeps the
	// trace. Every stage below appends to it, and opSpans covers a full
	// fan-out plus a data leg: an op that does not retry never grows it.
	if x.tr.Spans = op.Spans[:0]; keep {
		x.tr.Spans = make([]fabric.Span, 0, opSpans)
	}
	near, cached := nearEntry{}, false
	if have.Zero() && c.near != nil {
		if near, cached = c.near.get(key); cached {
			have = near.ver
		}
	}
	if !have.Zero() && (c.opt.Strategy == Strategy2xR || c.opt.Strategy == StrategySCAR) {
		ver, found, err = c.revalidateIndex(&x, key, pin)
		if err == nil && (!found || ver == have) {
			if cached && found {
				c.M.NearHits.Inc()
				value = slices.Clone(near.val)
			} else if cached {
				// An agreed miss: the key was erased (or the entry outlived
				// the corpus). The cached value must never resurrect it.
				c.near.drop(key)
			}
			c.finishGet(sc, found, c.Transport(), 1, &x.tr)
			return value, ver, found, x.tr, nil
		}
		if cached && err == nil { // the version moved: the loop refreshes the entry
			c.near.drop(key)
			c.M.NearStale.Inc()
		}
	}
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if ctx.Err() != nil {
			return nil, truetime.Version{}, false, x.tr, ErrExhausted
		}
		if attempt > 0 {
			if err := c.beginRetry(&x.tr, attempt); err != nil {
				return nil, truetime.Version{}, false, x.tr, err
			}
		}
		if sc != nil {
			sc.Attempt = uint32(attempt)
		}
		attemptStart := x.tr.Ns
		val, ok, wver, aerr := c.attemptGet(&x, key, after(pin, x.tr.Ns), c.fetchFor(key))
		if aerr == nil {
			c.opt.Budget.Credit()
			if ok {
				c.nearStore(key, val, wver)
			}
			c.finishGet(sc, ok, c.Transport(), uint32(attempt+1), &x.tr)
			return val, wver, ok, x.tr, nil
		}
		if sc != nil {
			x.tr.Annotate(trace.SpanRetry, uint32(attempt), attemptStart, x.tr.Ns-attemptStart)
		}
		c.classifyAndRepair(aerr)
	}
	// Final fallback: one more attempt over RPC — CliqueMap always keeps an
	// RPC path for lookups (§3, Table 1). It votes like any two-sided
	// fetch, and costs a retry token like any other attempt.
	if err := c.takeRetryToken(); err != nil {
		return nil, truetime.Version{}, false, x.tr, err
	}
	if val, ok, wver, aerr := c.attemptGet(&x, key, after(pin, x.tr.Ns), legRPC); aerr == nil {
		c.opt.Budget.Credit()
		c.M.RPCFallbacks.Inc()
		c.finishGet(sc, ok, trace.TransportRPC, uint32(c.opt.Retries+2), &x.tr)
		return val, wver, ok, x.tr, nil
	}
	c.M.Inquorate.Inc()
	return nil, truetime.Version{}, false, x.tr, fmt.Errorf("%w for key %q", ErrInquorate, key)
}

// finishGet is the one success epilogue of a GET, however it was served
// (near-cache, a quorum attempt, the final RPC attempt): count the outcome,
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

// attemptGet performs one lookup attempt on x, appending it to the op's
// trace: fetch views from the read cohort the way how names, vote, take
// the data from a quorum member. On a hit it also returns the
// quorum-winning version, which feeds the near-cache. pin is the attempt's
// virtual start (0 = now).
func (c *Client) attemptGet(x *legExec, key []byte, pin uint64, how legKind) ([]byte, bool, truetime.Version, error) {
	cfg := c.Config()
	var viewArr [8]indexView
	views := c.fetchViews(x, pin, cfg, key, how, viewArr[:0])
	// Whether the key is promoted decides both the speculative read and the
	// data read's spread, so it is read once: a mutation ack on another
	// goroutine can change it mid-attempt.
	promoted := c.near != nil && c.isPromoted(key)
	sp := c.speculate(x, how, views, cfg.Mode.Quorum(), promoted)

	winner, err := quorum(&x.tr, views, cfg.Mode.Quorum())
	if sp.view >= 0 {
		if err == nil && views[sp.view].entry.Version == winner {
			hideWait(&x.tr, sp.leg.at+sp.leg.tr.Ns)
		} else { // the vote went elsewhere: the read is not waited for
			sp.view = -1
		}
	}
	if err != nil {
		return nil, false, truetime.Version{}, err
	}
	if winner.Zero() {
		// Miss quorum. If any replica flagged overflow, the key may live in
		// a side table only a lookup RPC reaches (§4.2): ask the cohort
		// again over RPC, after this round, and vote on those answers. RPC
		// views carry no overflow bit, so this recurses once at most.
		for i := range views {
			if v := &views[i]; v.err == nil && v.overflow {
				val, ok, ver, err := c.attemptGet(x, key, x.pinned(x.tr.Ns), legRPC)
				if err == nil {
					c.M.RPCFallbacks.Inc()
				}
				return val, ok, ver, err
			}
		}
		return nil, false, truetime.Version{}, nil
	}
	val, err := c.readData(x, key, how, views, winner, &sp, promoted)
	if err != nil {
		return nil, false, truetime.Version{}, err
	}
	return val, true, winner, nil
}

// specRead is §5.1's speculative data read of views[view] (-1: none),
// starting at the end of that view's index leg.
type specRead struct {
	view int
	leg  leg
}

// speculate starts, while the quorum forms, the data read of the fastest
// first-round view if that replica is healthy and its entry takes a
// dependent read. Need-1 modes (the first answer is the quorum) and
// promoted keys (spread over the quorum) wait for the vote.
func (c *Client) speculate(x *legExec, how legKind, views []indexView, need int, promoted bool) (sp specRead) {
	sp.view = -1 // the fastest first-round view; a late leg counts from its own pin
	for i := range views {
		if v := &views[i]; v.err == nil && !v.late && (sp.view < 0 || v.ns < views[sp.view].ns) {
			sp.view = i
		}
	}
	if sp.view >= 0 && need > 1 && !promoted {
		if v := &views[sp.view]; v.present && (how == legIndex || how == legScar && !v.rep.conn.SupportsScar()) && !c.replicaDemoted(v.rep.addr) {
			sp.leg = x.start(legData, member{rep: v.rep, ptr: v.entry.Ptr}, x.origin+v.ns)
			return sp
		}
	}
	return specRead{view: -1}
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
// absorbed failure is counted. Each leg but a kept speculative read
// starts where the op's trace ends.
func (c *Client) readData(x *legExec, key []byte, how legKind, views []indexView, winner truetime.Version, sp *specRead, promoted bool) ([]byte, error) {
	// Candidates fastest first, with health-demoted members sorted last so
	// a browned-out backend serves data only when no healthy member can.
	var candArr [8]cand
	n := 0
	for i := range views {
		v := &views[i]
		if v.err == nil && v.present && v.entry.Version == winner && n < len(candArr) {
			if !how.oneSided() {
				// The server validated what it sent: the value serves as is,
				// out of op's arena as the caller's copy when it came by RPC.
				if how == legRPC {
					return slices.Clone(v.data), nil
				}
				return v.data, nil
			}
			candArr[n] = cand{view: i, ns: v.ns, demoted: i != sp.view && c.replicaDemoted(v.rep.addr)}
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
	if promoted && len(cands) > 1 {
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
		case how == legScar && v.rep.conn.SupportsScar():
			// Scan missed on the wire (e.g. racing rewrite): retryable. A
			// connection that cannot scan (1RMA) got a plain bucket Read in
			// fetchRound and takes the dependent read below.
			lastErr = layout.ErrTornRead
			continue
		default:
			l := sp.leg
			if cd.view != sp.view {
				l = x.start(legData, member{rep: v.rep, ptr: v.entry.Ptr}, x.tr.Ns)
			}
			// A NIC leg's outcome is in once started, so the hedge is
			// decided before wait places the primary. Hedge: the primary's
			// read exceeded the rolling threshold, so (in wall-time terms) a
			// backup read launched at +hedgeAfter may complete first; the op
			// takes whichever finishes sooner, and the other is not waited for.
			if l.err == nil {
				c.observeDataNs(l.tr.Ns)
			}
			if hedgeAfter := c.hedgeAfterNs(); ci == 0 && !last && l.err == nil && hedgeAfter > 0 && l.tr.Ns > hedgeAfter {
				c.M.Hedges.Inc()
				b := &views[cands[1].view]
				h := x.start(legHedge, member{rep: b.rep, ptr: b.entry.Ptr}, l.at+hedgeAfter)
				if h.err == nil && hedgeAfter+h.tr.Ns < l.tr.Ns {
					if hval, err := c.openEntry(b.rep.addr, h.resp, key, &winner); err == nil {
						c.M.HedgeWins.Inc()
						x.wait(&h)
						return hval, nil
					}
				}
			}
			data, _, derr := x.wait(&l)
			if derr != nil {
				c.noteReplicaFailure(v.rep.addr)
				lastErr = wrapTransportErr(v.rep.addr, derr)
				if !last {
					c.M.Failovers.Inc()
				}
				continue
			}
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

// GetBatch looks up many keys as one logical op (§7.1: Ads/Geo fetches are
// highly batched). Every key's legs are pinned to one virtual instant, the
// way a GET pins its replica fan-out, so the simulation runs the keys one
// after another while the model overlaps them: the batch trace is the
// slowest key, and the keys' responses queue on the shared client downlink
// — the incast the fabric model charges for. Nothing the loop sends at the
// clock's now may precede a pinned leg: access records wait for the loop
// to end, and an RPC a key needs (a Hello, a lookup over RPC) re-pins the keys
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
		v, _, ok, ktr, kerr := c.get(ctx, k, truetime.Version{}, pin, true)
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
