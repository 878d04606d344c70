package client

// Hot-key adaptive serving — the client half of the loop the server's
// promotion machinery (backend/hotset.go) drives. Its one switch,
// Options.NearCacheEntries > 0, turns on all of
//
//   - NEAR-CACHE: values of server-promoted (sketch-hot) keys are cached
//     client-side with their quorum-winning VersionNumber. A near-serve is
//     never blind: it first runs one index-only revalidation round — a
//     quorum of plain bucket reads, 1 RTT, no data leg even under SCAR —
//     and serves the cached value only if a read quorum still votes
//     exactly the cached version. An acked overwrite or erase therefore
//     invalidates the entry within one revalidation RTT, because any
//     read quorum intersects the mutation's ack quorum.
//   - PROMOTION LEARNING: the promoted-key set piggybacks on responses
//     the client already receives (access-record acks, §4.2);
//     per-backend sets are epoch-gated and merged into one atomic snapshot.
//   - STEERING: per-key transport choice. Promoted keys whose last
//     observed value size clears the Fig 20 crossover are fetched over
//     RPC (one round trip carrying the value beats index+data RMA reads
//     at large sizes); everything else keeps the configured strategy.
//   - SPREADING: promoted keys rotate the data-read candidate order
//     across the healthy quorum members instead of always hammering the
//     fastest replica, so a hot key's data reads load-balance R-ways. The
//     candidates are only members holding the winning version, so no
//     rotation reads a replica that lacks it.
//
// What the near-cache does NOT guarantee: a hit is as fresh as the
// revalidation quorum — a mutation acked after the revalidation round
// started may not be observed until the next GET. It never serves a
// value no quorum currently vouches for, and an erased key can never be
// resurrected from it (an agreed index miss drops the entry and serves
// the miss).

import (
	"errors"
	"slices"
	"sync"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/truetime"
)

// hotRPCCrossoverBytes is the per-key steering threshold: Figure 20's
// value-size sweep has RPC lookups matching the RMA paths' latency in
// the tens-of-KB range while moving fewer NIC-engine bytes than a SCAR
// data piggyback, so promoted keys at least this large steer to RPC.
const hotRPCCrossoverBytes = 16 << 10

// errNearInconclusive reports a revalidation round that cannot decide
// (an overflowed bucket hides the key from index-only reads); the full
// GET path must run.
var errNearInconclusive = errors.New("client: near-cache revalidation inconclusive")

type nearEntry struct {
	val []byte
	ver truetime.Version
	seq uint64 // its order record's; older records for the key are stale
}

type nearOrder struct {
	key string
	seq uint64
}

// nearCache is a small FIFO map of version-validated hot-key values.
// Admission is promotion-gated (nearStore), retention is cap-gated. Each
// entry carries the sequence number of its order record, so the record a
// drop leaves behind is recognizably stale — eviction skips it rather than
// evicting the key's re-admitted entry ahead of older ones — and compaction
// bounds the order slice at 2·cap however often a key is dropped and
// re-admitted.
type nearCache struct {
	mu    sync.Mutex
	cap   int
	seq   uint64
	m     map[string]nearEntry
	order []nearOrder

	// sizes keeps last-observed value sizes for steering — advisory
	// only, so entries survive drops and are evicted on their own FIFO.
	sizes     map[string]int
	sizeOrder []string
}

func newNearCache(capacity int) *nearCache {
	return &nearCache{
		cap:   capacity,
		m:     make(map[string]nearEntry, capacity),
		sizes: make(map[string]int),
	}
}

func (n *nearCache) get(key []byte) (nearEntry, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.m[string(key)]
	return e, ok
}

func (n *nearCache) put(key, val []byte, ver truetime.Version) {
	k := string(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sizes[k] != len(val) {
		if _, seen := n.sizes[k]; !seen {
			n.sizeOrder = append(n.sizeOrder, k)
			for len(n.sizeOrder) > 4*n.cap {
				victim := n.sizeOrder[0]
				n.sizeOrder = n.sizeOrder[1:]
				delete(n.sizes, victim)
			}
		}
		n.sizes[k] = len(val)
	}
	if e, ok := n.m[k]; ok {
		e.val, e.ver = append([]byte(nil), val...), ver
		n.m[k] = e
		return
	}
	for len(n.m) >= n.cap && len(n.order) > 0 {
		r := n.order[0]
		n.order = n.order[1:]
		if e, ok := n.m[r.key]; ok && e.seq == r.seq {
			delete(n.m, r.key)
		}
	}
	n.seq++
	n.m[k] = nearEntry{val: append([]byte(nil), val...), ver: ver, seq: n.seq}
	n.order = append(n.order, nearOrder{key: k, seq: n.seq})
	if len(n.order) > 2*n.cap {
		n.order = slices.DeleteFunc(n.order, func(r nearOrder) bool {
			e, ok := n.m[r.key]
			return !ok || e.seq != r.seq
		})
	}
}

func (n *nearCache) drop(key []byte) {
	n.mu.Lock()
	delete(n.m, string(key))
	n.mu.Unlock()
}

// sizeHint returns the last observed value size for key, if any — the
// steering input. Survives entry drops (it is advisory, not state).
func (n *nearCache) sizeHint(key []byte) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sz, ok := n.sizes[string(key)]
	return sz, ok
}

// ----------------------------------------------------- promotion state --

// isPromoted reports whether key is in any backend's promoted set, as
// last piggybacked to this client.
func (c *Client) isPromoted(key []byte) bool {
	p := c.promo.Load()
	if p == nil {
		return false
	}
	_, ok := (*p)[string(key)]
	return ok
}

// PromotedKeys returns the client's current view of the merged promoted
// set (tests, tooling).
func (c *Client) PromotedKeys() int {
	p := c.promo.Load()
	if p == nil {
		return 0
	}
	return len(*p)
}

// backendPromo is one backend's last piggybacked promotion set.
type backendPromo struct {
	epoch uint64
	keys  map[string]struct{}
}

// ingestPromo folds one backend's piggybacked promotion set, the encoded
// TouchResp ack (a Touch RPC's, or a mutation ack's Hot), into the merged
// snapshot. Epoch-gated per backend: replayed or unchanged responses are
// free, as is epoch 0 (nothing promoted yet) from a backend not heard from
// before. The keys are copied from ack.
func (c *Client) ingestPromo(addr string, ack []byte) {
	epoch, err := proto.TouchRespEpoch(ack)
	if err != nil {
		return
	}
	c.promoMu.Lock()
	defer c.promoMu.Unlock()
	if c.promoBy[addr].epoch == epoch {
		return
	}
	set := make(map[string]struct{})
	if proto.RangeHotKeys(ack, func(k []byte) { set[string(k)] = struct{}{} }) != nil {
		return
	}
	c.promoBy[addr] = backendPromo{epoch: epoch, keys: set}
	c.mergePromo()
}

// forgetPromo drops the promotion sets of backends that serve no shard
// under cfg — a departed backend's last set would otherwise stay merged
// for good, since nothing it sends will ever replace it.
func (c *Client) forgetPromo(cfg config.CellConfig) {
	c.promoMu.Lock()
	defer c.promoMu.Unlock()
	n := len(c.promoBy)
	for addr := range c.promoBy {
		if !servesShard(cfg, addr) {
			delete(c.promoBy, addr)
		}
	}
	if len(c.promoBy) != n {
		c.mergePromo()
	}
}

// mergePromo publishes the union of the per-backend sets. Callers hold
// promoMu.
func (c *Client) mergePromo() {
	merged := make(map[string]struct{})
	for _, p := range c.promoBy {
		for k := range p.keys {
			merged[k] = struct{}{}
		}
	}
	c.promo.Store(&merged)
}

// ------------------------------------------------------- near-serving --

// nearStore admits a quorum-validated GET result to the cache when its key
// is promoted; only then does its value size feed the steering hint, so a
// key's first read after promotion still uses the configured strategy.
func (c *Client) nearStore(key, val []byte, ver truetime.Version) {
	if c.near == nil || ver.Zero() || !c.isPromoted(key) {
		return
	}
	c.near.put(key, val, ver)
}

// nearInvalidate drops key after one of this client's own mutations: its
// cached version is definitionally stale.
func (c *Client) nearInvalidate(key []byte) {
	if c.near != nil {
		c.near.drop(key)
	}
}

// revalidateIndex runs one quorum round of index-only bucket reads on x —
// plain Reads even under SCAR, so no data bytes move — and returns the
// quorum-winning version (found=false for an agreed miss). Any error
// means the round was inconclusive.
func (c *Client) revalidateIndex(x *legExec, key []byte, pin uint64) (ver truetime.Version, found bool, err error) {
	cfg := c.Config()
	var viewArr [8]indexView
	views := c.fetchViews(x, pin, cfg, key, legIndex, viewArr[:0])
	ver, err = quorum(&x.tr, views, cfg.Mode.Quorum())
	if err != nil || !ver.Zero() {
		return ver, err == nil, err
	}
	for i := range views {
		if views[i].err == nil && views[i].overflow {
			// The key may live in an RPC-only side table (§4.2): an
			// index miss proves nothing.
			return truetime.Version{}, false, errNearInconclusive
		}
	}
	return truetime.Version{}, false, nil
}

// steerToRPC decides whether this GET should leave the configured
// transport for RPC: promoted keys whose last observed value size clears
// the Fig 20 crossover move more bytes over the RMA paths (bucket + data
// or SCAR piggyback) than a single RPC round trip carrying the value.
func (c *Client) steerToRPC(key []byte) bool {
	if c.near == nil || !c.isPromoted(key) {
		return false
	}
	sz, ok := c.near.sizeHint(key)
	return ok && sz >= hotRPCCrossoverBytes
}
