package client

// Route stage: which cohort serves a key under the client's cached
// config, and the per-backend state a fetch needs (handshake geometry,
// one-sided connection) with the repairs that drop it when stale.

import (
	"context"
	"fmt"
	"slices"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
)

// refreshConfig re-reads the HA store and drops cached handshakes, the
// §6.1 recovery path for config-ID mismatches — and the touch queues and
// promotion sets of backends that serve no shard in either epoch any more:
// nothing would fill or replace them again, and FlushTouches would keep
// reporting to a departed address.
func (c *Client) refreshConfig() {
	c.mu.Lock()
	c.cfg = c.store.Get()
	cfg := c.cfg
	c.hellos = make(map[string]proto.HelloResp)
	for addr := range c.touchQ {
		if !servesShard(cfg, addr) {
			delete(c.touchQ, addr)
		}
	}
	c.mu.Unlock()
	c.forgetPromo(cfg)
}

// servesShard reports whether addr serves a shard in either of cfg's epochs.
func servesShard(cfg config.CellConfig, addr string) bool {
	return slices.Contains(cfg.ShardAddrs, addr) || (cfg.Pending != nil && slices.Contains(cfg.Pending.ShardAddrs, addr))
}

// forgetHandshake drops one backend's cached geometry, forcing a fresh
// Hello on next use — the recovery path for revoked windows (§4.1).
func (c *Client) forgetHandshake(addr string) {
	c.mu.Lock()
	delete(c.hellos, addr)
	c.mu.Unlock()
}

// forgetConns drops cached one-sided connections; the next attempt
// re-dials against the hosts' current NICs.
func (c *Client) forgetConns() {
	c.mu.Lock()
	c.conns = make(map[int]nic.RMA)
	c.mu.Unlock()
}

// replica is the client's resolved view of one cohort member. Two-sided
// fetches need only the address and host; hello and conn are filled for
// one-sided fetches.
type replica struct {
	shard int
	addr  string
	host  int
	hello proto.HelloResp
	conn  nic.RMA
}

// route is the epoch-resolved fan-out for one key: cohort shard numbers
// with their serving addresses. Outside a resize transition it is simply
// the key's cohort; during one, reads come from whichever epoch is
// authoritative for the key and writes fan out to the union of both
// epochs' cohorts.
type route struct {
	n      int // cohort size; the arrays are filled up to it
	shards [config.MaxReplicas]int
	addrs  [config.MaxReplicas]string
}

// readRoute resolves the authoritative cohort for GETs. The old epoch
// stays authoritative until enough of the key's old cohort has been
// sealed (and therefore drained to the pending owners) that the pending
// epoch is guaranteed to hold every acked write; then reads move over.
func readRoute(cfg config.CellConfig, h hashring.KeyHash) (rt route) {
	cohort := cfg.AppendCohort(rt.shards[:0], int(h.Hi%uint64(cfg.Shards)))
	pending := cfg.Pending != nil && cfg.PendingAuthoritative(cohort)
	if pending { // mid-resize only: this one may allocate
		cohort = cfg.PendingCohort(int(h.Hi % uint64(cfg.Pending.Shards)))
	}
	rt.n = copy(rt.shards[:], cohort)
	for i, s := range cohort {
		if pending {
			rt.addrs[i] = cfg.Pending.AddrFor(s)
		} else {
			rt.addrs[i] = cfg.AddrFor(s)
		}
	}
	return rt
}

// mutLeg is one target of a mutation fan-out, tagged with the epoch(s)
// it represents for quorum accounting.
type mutLeg struct {
	addr      string
	inOld     bool
	inPending bool
}

// mutationLegs appends the union fan-out for a mutation to legs (room for
// 2×MaxReplicas holds any): every old-epoch cohort member plus, mid-resize,
// every pending-epoch cohort member, deduplicated by address (a backend
// often serves a shard in both epochs; it gets one RPC, counted toward both
// quorums).
func mutationLegs(cfg config.CellConfig, h hashring.KeyHash, legs []mutLeg) []mutLeg {
	var cohort [config.MaxReplicas]int
	for _, s := range cfg.AppendCohort(cohort[:0], int(h.Hi%uint64(cfg.Shards))) {
		legs = addLeg(legs, cfg.AddrFor(s), false)
	}
	if cfg.Pending != nil { // mid-resize only: this one may allocate
		for _, s := range cfg.PendingCohort(int(h.Hi % uint64(cfg.Pending.Shards))) {
			legs = addLeg(legs, cfg.Pending.AddrFor(s), true)
		}
	}
	return legs
}

// addLeg records that addr serves the key in the old or pending epoch.
func addLeg(legs []mutLeg, addr string, pending bool) []mutLeg {
	if addr == "" {
		return legs
	}
	for i := range legs {
		if legs[i].addr == addr {
			legs[i].inOld = legs[i].inOld || !pending
			legs[i].inPending = legs[i].inPending || pending
			return legs
		}
	}
	return append(legs, mutLeg{addr: addr, inOld: !pending, inPending: pending})
}

// resolveReplica produces a usable replica handle for the cohort member
// at addr. One-sided fetches dial the host and perform the Hello
// handshake if needed; an RPC fetch needs only a routable address (a
// remote caller has no fabric host to name).
func (c *Client) resolveReplica(ctx context.Context, cfg config.CellConfig, shard int, addr string, how legKind) (replica, error) {
	host := cfg.HostForAddr(addr)
	if addr == "" || host < 0 && how != legRPC {
		return replica{}, fmt.Errorf("%w: shard %d unresolved", ErrUnavailable, shard)
	}
	if !how.oneSided() {
		return replica{shard: shard, addr: addr, host: host}, nil
	}

	c.mu.Lock()
	hello, haveHello := c.hellos[addr]
	conn, haveConn := c.conns[host]
	c.mu.Unlock()

	if !haveConn {
		conn = c.dial(host)
		c.mu.Lock()
		c.conns[host] = conn
		c.mu.Unlock()
	}
	if !haveHello {
		// A handshake is control plane, no op's leg. It lands at the
		// clock's now, as a leg's RPC does (see legExec.wait).
		resp, _, err := c.rpcc.Call(ctx, addr, proto.MethodHello, nil)
		if c.now != nil {
			c.rpcAt.Store(c.now())
		}
		if err != nil {
			return replica{}, err
		}
		h, err := proto.UnmarshalHelloResp(resp)
		if err != nil {
			return replica{}, err
		}
		hello = h
		c.mu.Lock()
		c.hellos[addr] = h
		c.mu.Unlock()
	}
	return replica{shard: shard, addr: addr, host: host, hello: hello, conn: conn}, nil
}
