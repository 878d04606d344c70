package client

// Fetch stage: turn each member of the read cohort into an indexView.
// The four lookup strategies of Figure 7 differ only here; everything
// downstream (vote, data, retry) consumes views.

import (
	"context"
	"errors"
	"fmt"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
)

// fetch names how one replica is turned into an indexView.
type fetch uint8

const (
	fetchBucket fetch = iota // one-sided bucket Read; data follows as a dependent Read (2×R)
	fetchScar                // one-sided ScanAndRead; the DataEntry piggybacks
	fetchMsg                 // two-sided NIC message; the value rides the response
	fetchRPC                 // full RPC; the value rides the response
)

// oneSided reports whether the fetch reads replica memory directly — and
// so needs a handshake and a connection, returns raw bytes the client
// must validate itself, and can see a bucket's overflow bit.
func (f fetch) oneSided() bool { return f <= fetchScar }

// indexView is one replica's answer to the fetch stage: what it holds
// for the key (present, entry.Version) and, when the fetch already moved
// them, the bytes to serve — a piggybacked DataEntry under SCAR, the
// value itself under MSG/RPC. Only one-sided views fill entry.Ptr and
// overflow.
type indexView struct {
	rep      replica
	entry    layout.IndexEntry
	present  bool
	overflow bool
	data     []byte
	trace    fabric.OpTrace
	err      error
	late     bool // asked in an escalation round, after the first ended
}

// fetchFor picks this GET's fetch: the configured strategy, unless per-
// key steering moves a promoted large value onto RPC — past the Fig 20
// crossover one RPC moves fewer bytes (and fewer NIC ops) than the RMA
// index+data legs.
func (c *Client) fetchFor(key []byte) fetch {
	switch {
	case c.opt.Strategy == StrategyRPC, c.opt.Strategy == StrategyMSG && c.msg == nil:
		return fetchRPC
	case c.opt.Strategy == StrategyMSG:
		return fetchMsg
	case c.steerToRPC(key):
		c.M.SteerRPC.Inc()
		return fetchRPC
	case c.opt.Strategy == StrategySCAR:
		return fetchScar
	}
	return fetchBucket
}

// fetchViews resolves the read cohort and fetches from it, appending one
// view per consulted member to views (errors included, so the vote can
// surface them), its legs reading into op's storage. It returns the views
// and the virtual instant the first round's legs were pinned to: pin, or
// now if pin is 0 or predates the client's last RPC.
func (c *Client) fetchViews(ctx context.Context, op *trace.OpLease, pin uint64, cfg config.CellConfig, rt route, key []byte, h hashring.KeyHash, how fetch, views []indexView) ([]indexView, uint64) {
	// A two-sided leg costs a backend's CPU, so a two-sided fetch asks a
	// read quorum, rotated by the key's hash so each member serves its
	// share, and the rest only when its live views do not all vote one
	// version: once need views agree on V, a tally over the whole cohort
	// returns V too. R=2/Immutable asks one replica (§6.4); one-sided
	// R=3.2 asks all three at once to hide a slow one (§5.1).
	need, round, rot := cfg.Mode.Quorum(), rt.n, 0
	if need < round && (!how.oneSided() || need == 1) {
		round, rot = need, int((h.Lo>>32)%uint64(rt.n))
	}
	// Resolve replicas — first use pays a Hello RPC — before pinning the
	// op's virtual start: connection setup is control-plane work.
	for j := range rt.n {
		i := (j + rot) % rt.n
		rep, err := c.resolveReplica(ctx, cfg, rt.shards[i], rt.addrs[i], how)
		views = append(views, indexView{rep: rep, err: err})
	}
	// Members the health layer has demoted, or that did not resolve, go last.
	for i, front := 0, 0; round < rt.n && i < rt.n; i++ {
		if v := &views[i]; v.err == nil && !c.replicaDemoted(v.rep.addr) {
			views[front], views[i] = views[i], views[front]
			front++
		}
	}

	// Two-sided lookups bill the client once per attempt — one-sided legs
	// bill themselves (Figure 7 calibration) — and marshal their request
	// once for the whole fan-out, into op's arena.
	var req []byte
	switch how {
	case fetchRPC:
		c.chargeCPU(cpuRPC)
	case fetchMsg:
		c.chargeCPU(cpuMSG)
	}
	if !how.oneSided() {
		req = op.Keep(proto.GetReq{Key: key, ConfigID: cfg.ID}.AppendTo(op.Free()))
	}

	// All NIC legs are pinned to one virtual op-start instant (0 = unpinned)
	// so their responses contend for this client's downlink in the model.
	// An RPC that returned after pin (a Hello above, an earlier RPC lookup)
	// landed at the clock's now: legs pinned before it would bill the wall
	// time between as queueing, so they re-pin to now.
	at := pin
	if (at == 0 || at < c.rpcAt.Load()) && c.now != nil {
		at = c.now()
	}

	roundNs := c.fetchRound(ctx, op, at, h, cfg.ID, how, req, views[:round])
	if round == len(views) {
		return views, at
	}
	if _, err := tally(views[:round], need); err == nil {
		return views[:round], at
	}
	// The first round disagreed: ask the rest, after it.
	for i := round; i < len(views); i++ {
		views[i].late = true
	}
	c.fetchRound(ctx, op, after(at, roundNs), h, cfg.ID, how, req, views[round:])
	return views, at
}

// fetchRound asks every resolved member of views, its legs pinned at at,
// notes each answer with the health layer, and returns the slowest leg's
// ns. An RPC round starts every leg before it waits for the first, so that
// legs over a socket overlap; the answers are read in views' order either
// way.
func (c *Client) fetchRound(ctx context.Context, op *trace.OpLease, at uint64, h hashring.KeyHash, cfgID uint64, how fetch, req []byte, views []indexView) (roundNs uint64) {
	var legs [config.MaxReplicas]rpc.Pending
	if how == fetchRPC {
		for i := range views {
			if views[i].err == nil {
				legs[i] = c.start(ctx, op, views[i].rep.addr, proto.MethodGet, req)
			}
		}
	}
	for i := range views {
		v := &views[i]
		if v.err != nil {
			continue
		}
		if how == fetchRPC {
			v.answer(c.wait(op, &legs[i]))
		} else {
			c.fetchIndex(op, at, h, cfgID, how, req, v)
		}
		roundNs = max(roundNs, v.trace.Ns)
		if v.err != nil {
			c.noteReplicaFailure(v.rep.addr)
			continue
		}
		c.noteReplicaSuccess(v.rep.addr)
	}
	return roundNs
}

// answer fills v from a two-sided lookup. The server ran the lookup —
// stamp check, key match, checksum — and answers (found, version, value).
// The value is a view of the response: in op's arena over RPC, the leg's
// own buffer over MSG.
func (v *indexView) answer(resp []byte, tr fabric.OpTrace, err error) {
	if v.trace, v.err = tr, err; err != nil {
		return
	}
	var g proto.GetResp
	g, v.err = proto.UnmarshalGetResp(resp)
	v.present, v.entry.Version, v.data = g.Found, g.Version, g.Value
}

// fetchIndex asks v.rep what it holds for the key over MSG or one-sided RMA
// (fetchRound runs RPC legs) and fills v in place. The replica must
// already be resolved: Hello traffic ahead of the pinned op start must not
// masquerade as data-plane queueing. cfgID is the config the client routed
// with; an answer stamped differently means the fleet moved on
// (maintenance or resize) and cannot be trusted.
func (c *Client) fetchIndex(op *trace.OpLease, at uint64, h hashring.KeyHash, cfgID uint64, how fetch, req []byte, v *indexView) {
	if how == fetchMsg {
		v.answer(c.msg(v.rep.host, at, req))
		return
	}

	rep := &v.rep
	geo := layout.Geometry{Buckets: rep.hello.Buckets, Ways: rep.hello.Ways}
	bucket := int(h.Lo % uint64(geo.Buckets))
	off := geo.BucketOffset(bucket)

	var raw []byte
	var err error
	if how == fetchScar && rep.conn.SupportsScar() {
		c.chargeCPU(cpuSCAR)
		dst, spans := op.Leg()
		var res nic.ScarResult
		res, v.trace, err = nic.Appending(rep.conn).AppendScanAndRead(dst, spans, at, rep.hello.IndexWindow, off, geo.BucketSize(), h, geo.Ways)
		op.Received(len(res.Bucket) + len(res.Data))
		raw = res.Bucket
		if res.Found {
			v.data = res.Data
		}
	} else {
		c.chargeCPU(cpu2xR / 2) // per index leg; data leg bills the rest
		raw, v.trace, err = readLeg(op, rep.conn, at, rep.hello.IndexWindow, off, geo.BucketSize())
	}
	if err != nil {
		v.err = wrapTransportErr(rep.addr, err)
		return
	}

	// The bucket is scanned where it lies in the leg's response buffer;
	// only the matching slot is decoded.
	b, err := layout.ViewBucket(raw, geo.Ways)
	if err != nil {
		v.err = err
		return
	}
	// Self-validation: the bucket's ConfigID must match the config the
	// client routed with (§6.1). Comparing against the routing config —
	// not the cached Hello, which a fresh handshake would already have
	// fast-forwarded — is what catches a stale client whose cohort no
	// longer holds the key after a resize: the absent votes it would
	// otherwise collect look exactly like a legitimate miss.
	if b.ConfigID() != cfgID {
		v.err = layout.ErrConfigChanged
		return
	}
	v.overflow = b.Flags()&layout.OverflowFlag != 0
	v.entry, _, v.present = b.Find(h)
}

// readLeg is one plain one-sided Read into op's storage.
func readLeg(op *trace.OpLease, conn nic.RMA, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	dst, spans := op.Leg()
	b, tr, err := nic.Appending(conn).AppendRead(dst, spans, at, win, off, length)
	op.Received(len(b))
	return b, tr, err
}

// errStale wraps a window error with the backend it came from.
type errStale struct {
	addr string
	err  error
}

func (e errStale) Error() string { return fmt.Sprintf("stale state at %s: %v", e.addr, e.err) }
func (e errStale) Unwrap() error { return e.err }

// wrapTransportErr tags window failures with the backend so the retry
// layer can repair precisely.
func wrapTransportErr(addr string, err error) error {
	if errors.Is(err, nic.ErrUnreachable) {
		return err
	}
	return errStale{addr: addr, err: err}
}
