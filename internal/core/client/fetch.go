package client

// Fetch stage: turn each member of the read cohort into an indexView.
// The four lookup strategies of Figure 7 differ only here; everything
// downstream (vote, data, retry) consumes views.

import (
	"errors"
	"fmt"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
)

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
	ns       uint64 // its leg's modelled latency
	err      error
	late     bool // asked in an escalation round, after the first ended
}

// fetchFor picks this GET's fetch, named by its index legs' kind: the
// configured strategy, unless per-key steering moves a promoted large value
// onto RPC — past the Fig 20 crossover one RPC moves fewer bytes (and
// fewer NIC ops) than the RMA index+data legs.
func (c *Client) fetchFor(key []byte) legKind {
	switch {
	case c.opt.Strategy == StrategyRPC, c.opt.Strategy == StrategyMSG && c.msg == nil:
		return legRPC
	case c.opt.Strategy == StrategyMSG:
		return legMsg
	case c.steerToRPC(key):
		c.M.SteerRPC.Inc()
		return legRPC
	case c.opt.Strategy == StrategySCAR:
		return legScar
	}
	return legIndex
}

// fetchViews resolves the key's read cohort and fetches from it on x,
// appending one view per consulted member to views (errors included, so
// the vote can surface them). Its legs are pinned at pin, or now if pin is
// 0 or predates the client's last RPC.
func (c *Client) fetchViews(x *legExec, pin uint64, cfg config.CellConfig, key []byte, how legKind, views []indexView) []indexView {
	rt := readRoute(cfg, x.h)
	// A two-sided leg costs a backend's CPU, so a two-sided fetch asks a
	// read quorum, rotated by the key's hash so each member serves its
	// share, and the rest only when its live views do not all vote one
	// version: once need views agree on V, a tally over the whole cohort
	// returns V too. R=2/Immutable asks one replica (§6.4); one-sided
	// R=3.2 asks all three at once to hide a slow one (§5.1).
	need, round, rot := cfg.Mode.Quorum(), rt.n, 0
	if need < round && (!how.oneSided() || need == 1) {
		round, rot = need, int((x.h.Lo>>32)%uint64(rt.n))
	}
	// Resolve replicas — first use pays a Hello RPC — before pinning the
	// op's virtual start: connection setup is control-plane work.
	for j := range rt.n {
		i := (j + rot) % rt.n
		rep, err := c.resolveReplica(x.ctx, cfg, rt.shards[i], rt.addrs[i], how)
		views = append(views, indexView{rep: rep, err: err})
	}
	// Members the health layer has demoted, or that did not resolve, go last.
	for i, front := 0, 0; round < rt.n && i < rt.n; i++ {
		if v := &views[i]; v.err == nil && !c.replicaDemoted(v.rep.addr) {
			views[front], views[i] = views[i], views[front]
			front++
		}
	}

	// A two-sided fetch marshals its request once for the whole fan-out,
	// into op's arena.
	var req []byte
	if !how.oneSided() {
		req = x.op.Keep(proto.GetReq{Key: key, ConfigID: cfg.ID}.AppendTo(x.op.Free()))
	}

	// All NIC legs are pinned to one virtual op-start instant (0 = unpinned)
	// so their responses contend for this client's downlink in the model.
	// An RPC that returned after pin (a Hello above, an earlier RPC lookup)
	// landed at the clock's now: legs pinned before it would bill the wall
	// time between as queueing, so they re-pin to now.
	if (pin == 0 || pin < c.rpcAt.Load()) && c.now != nil {
		pin = c.now()
	}
	x.begin(pin)

	roundNs := c.fetchRound(x, x.origin, cfg.ID, how, req, views[:round])
	if round == len(views) {
		return views
	}
	if _, err := tally(views[:round], need); err == nil {
		return views[:round]
	}
	// The first round disagreed: ask the rest, after it.
	for i := round; i < len(views); i++ {
		views[i].late = true
	}
	c.fetchRound(x, x.origin+roundNs, cfg.ID, how, req, views[round:])
	return views
}

// fetchRound asks every resolved member of views, its legs starting at at
// on the op's timeline, notes each answer with the health layer, and
// returns the slowest leg's ns. Every leg is started before the first is
// awaited; the answers are read in views' order.
func (c *Client) fetchRound(x *legExec, at, cfgID uint64, how legKind, req []byte, views []indexView) (roundNs uint64) {
	var legs [config.MaxReplicas]leg
	for i := range views {
		if v := &views[i]; v.err == nil {
			k := how
			if k == legScar && !v.rep.conn.SupportsScar() {
				k = legIndex // 1RMA: a plain bucket Read, then a dependent data Read
			}
			legs[i] = x.start(k, member{rep: v.rep, method: proto.MethodGet, req: req}, at)
		}
	}
	for i := range views {
		v := &views[i]
		if v.err != nil {
			continue
		}
		resp, tr, err := x.wait(&legs[i])
		v.ns = tr.Ns
		if how.oneSided() {
			v.index(resp, legs[i].data, err, x.h, cfgID)
		} else {
			v.answer(resp, err)
		}
		roundNs = max(roundNs, v.ns)
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
func (v *indexView) answer(resp []byte, err error) {
	if v.err = err; err != nil {
		return
	}
	var g proto.GetResp
	g, v.err = proto.UnmarshalGetResp(resp)
	v.present, v.entry.Version, v.data = g.Found, g.Version, g.Value
}

// index fills v from a one-sided index leg: the bucket raw and a SCAR
// leg's piggybacked DataEntry. cfgID is the config the client routed with;
// an answer stamped differently means the fleet moved on (maintenance or
// resize) and cannot be trusted.
func (v *indexView) index(raw, data []byte, err error, h hashring.KeyHash, cfgID uint64) {
	if err != nil {
		v.err = wrapTransportErr(v.rep.addr, err)
		return
	}
	v.data = data
	// The bucket is scanned where it lies in the leg's response buffer;
	// only the matching slot is decoded.
	b, err := layout.ViewBucket(raw, v.rep.hello.Ways)
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
