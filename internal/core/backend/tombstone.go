package backend

import (
	"bytes"
	"math/bits"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

// tombstoneCache keeps the VersionNumbers of ERASEd keys (§5.2) on the
// backend's heap, not in RMA-accessible DRAM, so late SETs cannot
// resurrect erased values. Eviction is two-staged: a tombstone evicted
// from the exact list moves to the PENDING-SETTLE list, precise and
// enumerable to cohort scans until a repair sweep sees its cohort settled;
// only a pending-list overflow collapses it into the coarse summary, which
// blocks stale SETs but is invisible to repair (see RepairShard). The
// resurrection residual is bounded to keys that fall out of BOTH stages
// between sweeps, and overflow counts them.
//
// Both lists are FIFO by first insertion, in one index-linked arena with
// a free chain. The arena is also the KeyHash index: node b heads the
// chain of the hashes that land in bucket b. The key stays the identity (a
// lookup compares its bytes); a second key whose hash is taken folds into
// the summary, which only blocks. The first insert takes the whole arena,
// sized by the bound, so no later insert allocates or grows anything but
// the spill buffer of a key longer than any this repository makes.
type tombstoneCache struct {
	nodes    []tombNode // nil until the first insert; 0 and 1 are the lists' sentinels
	spill    [][]byte   // by node: the bytes of a key past tombCell, kept for its next key
	free     int32      // chained through next; a sentinel never is, so 0 ends it
	n        [2]int32   // each list's length
	cap      int32      // each list's bound
	summary  truetime.Version
	overflow uint64
}

// tombCell holds every key this repository generates inline: workload
// keys are 20 B, tier-prefixed ones 26 B, probe canaries 18 B.
const tombCell = 32

// A node is on one list, the stage's: its sentinel's next is the oldest.
type tombNode struct {
	h                    hashring.KeyHash
	v                    truetime.Version
	n, prev, next, stage int32 // n is the key's length
	head, chain          int32 // bucket b's first node; the next in this node's bucket
	cell                 [tombCell]byte
}

const exactStage, pendingStage = 0, 1

func newTombstoneCache(capacity int) *tombstoneCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &tombstoneCache{cap: int32(capacity)}
}

// take allocates the arena: both lists' bound, their sentinels, every
// other node on the free chain.
func (t *tombstoneCache) take() {
	t.nodes = make([]tombNode, 2*t.cap+2)
	t.nodes[pendingStage].prev, t.nodes[pendingStage].next = pendingStage, pendingStage
	for i := int32(len(t.nodes)) - 1; i > pendingStage; i-- {
		t.nodes[i].next, t.free = t.free, i
	}
}

func (t *tombstoneCache) key(i int32) []byte {
	n := &t.nodes[i]
	if n.n <= tombCell {
		return n.cell[:n.n:n.n]
	}
	return t.spill[i][:n.n:n.n]
}

// setKey stores key in node i: in its cell, or in its spill buffer.
func (t *tombstoneCache) setKey(i int32, key []byte) {
	n := &t.nodes[i]
	if n.n = int32(len(key)); n.n <= tombCell {
		copy(n.cell[:], key)
		return
	}
	if t.spill == nil {
		t.spill = make([][]byte, len(t.nodes))
	}
	t.spill[i] = append(t.spill[i][:0], key...)
}

// bucket maps h onto a node whose head starts its chain.
func (t *tombstoneCache) bucket(h hashring.KeyHash) int32 {
	b, _ := bits.Mul64(h.Lo, uint64(len(t.nodes)))
	return int32(b)
}

// lookup returns the node holding h, or 0.
func (t *tombstoneCache) lookup(h hashring.KeyHash) int32 {
	if t.nodes == nil {
		return 0
	}
	i := t.nodes[t.bucket(h)].head
	for i != 0 && t.nodes[i].h != h {
		i = t.nodes[i].chain
	}
	return i
}

func (t *tombstoneCache) find(h hashring.KeyHash, key []byte) (int32, bool) {
	i := t.lookup(h)
	return i, i != 0 && bytes.Equal(t.key(i), key)
}

// push appends node i to the back of stage's list.
func (t *tombstoneCache) push(i, stage int32) {
	n := &t.nodes[i]
	n.stage, n.prev, n.next = stage, t.nodes[stage].prev, stage
	t.nodes[n.prev].next, t.nodes[stage].prev = i, i
	t.n[stage]++
}

func (t *tombstoneCache) unlink(i int32) {
	n := &t.nodes[i]
	t.nodes[n.prev].next, t.nodes[n.next].prev = n.next, n.prev
	t.n[n.stage]--
}

// remove unlinks node i, takes it off its bucket's chain and chains it for
// reuse.
func (t *tombstoneCache) remove(i int32) {
	t.unlink(i)
	p := &t.nodes[t.bucket(t.nodes[i].h)].head
	for *p != i {
		p = &t.nodes[*p].chain
	}
	*p = t.nodes[i].chain
	t.nodes[i].next, t.free = t.free, i
}

// fold raises the summary to v for a tombstone leaving the exact stages.
func (t *tombstoneCache) fold(v truetime.Version) {
	t.summary = t.summary.Max(v)
	t.overflow++
}

// insert records key as erased at v. A key already in the exact cache
// takes a newer v in place; any other, at capacity, demotes the oldest
// exact tombstone to the pending list, whose own oldest folds into the
// summary when that is full too — the formally-bounded residual.
func (t *tombstoneCache) insert(h hashring.KeyHash, key []byte, v truetime.Version) {
	if t.nodes == nil {
		t.take()
	}
	i := t.lookup(h)
	switch {
	case i != 0 && !bytes.Equal(t.key(i), key):
		t.fold(v)
		return
	case i != 0 && t.nodes[i].stage == exactStage:
		t.nodes[i].v = t.nodes[i].v.Max(v)
		return
	case i != 0: // the exact entry supersedes the key's pending copy
		t.unlink(i)
	}
	if d := t.nodes[exactStage].next; t.n[exactStage] >= t.cap {
		t.unlink(d)
		if p := t.nodes[pendingStage].next; t.n[pendingStage] >= t.cap {
			t.fold(t.nodes[p].v)
			t.remove(p)
		}
		t.push(d, pendingStage)
	}
	if i == 0 {
		i, t.free = t.free, t.nodes[t.free].next
		t.setKey(i, key)
		b := t.bucket(h)
		t.nodes[i].h, t.nodes[i].chain, t.nodes[b].head = h, t.nodes[b].head, i
	}
	t.nodes[i].v = v
	t.push(i, exactStage)
}

// each calls fn with every linked node: the exact list, then the pending
// one, each oldest first. fn may remove the node it is given.
func (t *tombstoneCache) each(fn func(i int32)) {
	if t.nodes == nil {
		return
	}
	for s := range int32(2) {
		for i := t.nodes[s].next; i != s; {
			next := t.nodes[i].next
			fn(i)
			i = next
		}
	}
}

// settled retires key's pending tombstone once a repair sweep observed the
// cohort settled at v (every replica holds it, or every laggard's
// re-erase was delivered); one newer than v still needs its own settle.
func (t *tombstoneCache) settled(h hashring.KeyHash, key []byte, v truetime.Version) {
	if i, ok := t.find(h, key); ok && t.nodes[i].stage == pendingStage && !v.Less(t.nodes[i].v) {
		t.remove(i)
	}
}

// drop removes key's tombstone (a newer SET superseded it). The summary is
// untouched — it only ever grows.
func (t *tombstoneCache) drop(h hashring.KeyHash, key []byte) {
	if i, ok := t.find(h, key); ok {
		t.remove(i)
	}
}

// bound returns the highest version that could have erased key, and
// whether that is key's own tombstone (exact or pending) rather than the
// summary upper bound.
func (t *tombstoneCache) bound(h hashring.KeyHash, key []byte) (truetime.Version, bool) {
	if i, ok := t.find(h, key); ok {
		return t.nodes[i].v, true
	}
	return t.summary, false
}

// dropIf removes every precise tombstone whose hash satisfies pred.
func (t *tombstoneCache) dropIf(pred func(h hashring.KeyHash) bool) {
	t.each(func(i int32) {
		if pred(t.nodes[i].h) {
			t.remove(i)
		}
	})
}

// len counts both lists: both feed bound, so both gate the tombLive shadow.
func (t *tombstoneCache) len() int { return int(t.n[exactStage] + t.n[pendingStage]) }

// The tombstone cache stays global — its coarse summary bound (§5.2) is a
// whole-backend property (TestTombstoneSummaryCoarseButConsistent) —
// behind its own leaf mutex, tombMu. Below is the Backend's only access to
// it; callers pass the key's hash. Reads and drops first consult atomic
// shadows, so with no tombstones (the common case) SETs skip tombMu.

// tombMutate runs fn on the cache under tombMu and refreshes the shadows.
func (b *Backend) tombMutate(fn func(t *tombstoneCache)) {
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	fn(b.tomb)
	b.tombLive.Store(int64(b.tomb.len()))
	b.tombSummarySet.Store(!b.tomb.summary.Zero())
}

func (b *Backend) tombBound(h hashring.KeyHash, key []byte) (truetime.Version, bool) {
	if b.tombLive.Load() == 0 && !b.tombSummarySet.Load() {
		return truetime.Version{}, false
	}
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	return b.tomb.bound(h, key)
}

// tombPublish records an applied mutation: an erase's tombstone, or the
// drop of the one a newer SET superseded.
func (b *Backend) tombPublish(erase bool, h hashring.KeyHash, key []byte, v truetime.Version) {
	if erase {
		b.tombMutate(func(t *tombstoneCache) { t.insert(h, key, v) })
	} else if b.tombLive.Load() != 0 {
		b.tombMutate(func(t *tombstoneCache) { t.drop(h, key) })
	}
}

// tombSettled retires the pending tombstone of it, the newest replica's
// scan item, once a repair sweep observed its erase cohort-settled.
func (b *Backend) tombSettled(it proto.ScanItem) {
	if b.tombLive.Load() != 0 {
		h := hashring.KeyHash{Hi: it.HashHi, Lo: it.HashLo}
		b.tombMutate(func(t *tombstoneCache) { t.settled(h, it.Key, it.Version) })
	}
}

// tombSummaryFold raises the summary to at least v — the receiving half of
// a handoff's summary transfer (monotone and idempotent).
func (b *Backend) tombSummaryFold(v truetime.Version) {
	b.tombMutate(func(t *tombstoneCache) { t.summary = t.summary.Max(v) })
}

// tombReset empties the cache, summary included (Clear).
func (b *Backend) tombReset() {
	b.tombMutate(func(*tombstoneCache) { b.tomb = newTombstoneCache(b.opt.TombstoneCap) })
}

// tombItems returns every enumerable tombstone as an item whose key is a
// copy, and the coarse summary: what a handoff streams after its data and
// what a checkpoint writes after its corpus.
func (b *Backend) tombItems() (items []proto.MigrateItem, summary truetime.Version) {
	summary = b.eachTombstone(shardFilter{}, func(key []byte, _ hashring.KeyHash, v truetime.Version) {
		items = append(items, proto.MigrateItem{Key: append([]byte(nil), key...), Version: v, Tombstone: true})
	})
	return items, summary
}

// eachTombstone enumerates the precise tombstones f admits, exact and
// pending, so scans, handoffs and checkpoints see erases as first-class
// versioned state, and returns the coarse summary (§5.2), which repair
// and handoffs carry beside them: what it swallowed is the bounded
// residual. key is the cache's own storage: fn copies what it keeps.
func (b *Backend) eachTombstone(f shardFilter, fn func(key []byte, h hashring.KeyHash, v truetime.Version)) truetime.Version {
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	b.tomb.each(func(i int32) {
		if n := &b.tomb.nodes[i]; f.match(n.h) {
			fn(b.tomb.key(i), n.h, n.v)
		}
	})
	return b.tomb.summary
}
