package client

// Hot-key adaptive serving. Its one switch, Options.NearCacheEntries > 0,
// turns on both of
//
//   - NEAR-CACHE: values of promoted keys are cached client-side with
//     their quorum-winning VersionNumber. A near-serve is never blind: it
//     first runs one index-only revalidation round — a quorum of plain
//     bucket reads, 1 RTT, no data leg even under SCAR — and serves the
//     cached value only if a read quorum still votes exactly the cached
//     version. An acked overwrite or erase therefore invalidates the
//     entry within one revalidation RTT, because any read quorum
//     intersects the mutation's ack quorum.
//   - ADMISSION: the client promotes the keys hot in its own GETs
//     (hotSet); no backend takes part.
//
// A promoted key's GET that the near-cache cannot serve takes the
// configured strategy like any other.
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
	"sync/atomic"

	"cliquemap/internal/stats"
	"cliquemap/internal/truetime"
)

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
	hot   hotSet
}

func newNearCache(capacity int) *nearCache {
	return &nearCache{cap: capacity, m: make(map[string]nearEntry, capacity), hot: hotSet{heat: stats.NewTopK(0)}}
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

// ----------------------------------------------------------- admission --

// Admission: the near-cache takes only keys hot in this client's own GETs.
// Every GET counts its key in a heavy-hitter sketch; the top keys whose
// share of those GETs clears a promotion bar are PROMOTED, and a promoted
// key stays until its share falls below the lower demotion bar, so keys
// oscillating around the threshold do not churn the set. Any admission
// policy is safe (every near-serve is revalidated by a quorum); this one
// only decides what is worth the cache's room.
const (
	hotK            = 8  // promoted-set capacity
	hotMinCount     = 8  // absolute floor: never promote on a tiny sample
	hotPromoteMilli = 20 // promote at ≥ 2.0% of this client's GETs
	hotDemoteMilli  = 10 // demote below 1.0% (hysteresis)
	hotEvalEvery    = 32 // re-evaluate once per this many GETs
)

// hotSet is a near-cache client's promotion state.
type hotSet struct {
	heat *stats.TopK   // this client's GETs
	gets atomic.Uint64 // GETs counted, paces evaluations
	mu   sync.Mutex    // serializes evaluations
	cand []stats.HotCand
	keys atomic.Pointer[map[string]struct{}] // the promoted set, swapped whole
}

// noteGet counts one GET of key (h is its hash) and re-evaluates the
// promoted set every hotEvalEvery GETs.
func (p *hotSet) noteGet(key []byte, h uint64) {
	p.heat.Touch(key, h)
	if p.gets.Add(1)%hotEvalEvery == 0 {
		p.eval()
	}
}

// eval recomputes the promoted set from the sketch. An unchanged set — the
// usual outcome — selects into the candidate scratch and builds nothing.
func (p *hotSet) eval() {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.heat.Total()
	promoteBar := max(total*hotPromoteMilli/1000, hotMinCount)
	demoteBar := max(total*hotDemoteMilli/1000, hotMinCount/2)
	cur := p.set()
	// Move the candidates that clear their bar to the front, hottest first,
	// and see whether they are the set already published.
	p.cand = p.heat.AppendTop(p.cand, 2*hotK)
	cand, next, same := p.cand, 0, true
	for i := 0; i < len(cand) && next < hotK; i++ {
		_, promoted := cur[string(cand[i].Key)]
		bar := promoteBar
		if promoted {
			bar = demoteBar
		}
		if cand[i].Count >= bar {
			cand[next], cand[i] = cand[i], cand[next]
			next++
			same = same && promoted
		}
	}
	if same && next == len(cur) {
		return
	}
	keys := make(map[string]struct{}, next)
	for _, hk := range cand[:next] {
		keys[string(hk.Key)] = struct{}{}
	}
	p.keys.Store(&keys)
}

// set returns the promoted set, nil before the first promotion.
func (p *hotSet) set() map[string]struct{} {
	if k := p.keys.Load(); k != nil {
		return *k
	}
	return nil
}

// isPromoted reports whether key is in the client's promoted set.
func (c *Client) isPromoted(key []byte) bool {
	if c.near == nil {
		return false
	}
	_, ok := c.near.hot.set()[string(key)]
	return ok
}

// PromotedKeys returns the size of the client's promoted set (tests,
// tooling).
func (c *Client) PromotedKeys() int {
	if c.near == nil {
		return 0
	}
	return len(c.near.hot.set())
}

// ------------------------------------------------------- near-serving --

// nearStore admits a quorum-validated GET result to the cache when its key
// is promoted.
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
	views := c.fetchViews(x, pin, cfg, key, legIndex, viewArr[:0], nil)
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
