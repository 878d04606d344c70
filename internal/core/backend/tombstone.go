package backend

import (
	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

// tombstoneCache retains VersionNumbers of ERASEd keys (§5.2): late
// arriving SETs must not resurrect affirmatively-erased values, but erased
// versions cannot live in the index region without wasting RMA-accessible
// DRAM. The cache is a fully associative, fixed-size structure on the
// backend's heap.
//
// Eviction is two-staged. A tombstone evicted from the exact cache first
// moves to the PENDING-SETTLE queue: it keeps its precise (key, version)
// and stays enumerable to cohort scans, so the next repair sweep can fold
// the erase back into cohort state (re-erasing any replica that missed
// it) and then retire the entry once the cohort is observed settled.
// Only when the pending queue itself overflows does a tombstone collapse
// into the single coarse summary VersionNumber — coarse, but never
// inconsistent. The summary blocks stale SETs but is invisible to repair
// (repair must stay neutral on summary-dominated keys, see RepairShard),
// so the resurrection residual is formally bounded to keys that fall out
// of BOTH stages before a repair sweep runs; overflow counts the times
// that bound was consumed.
type tombstoneCache struct {
	live     tombQueue // the exact cache
	pending  tombQueue // evicted-but-not-yet-settled tombstones
	summary  truetime.Version
	overflow uint64 // pending evictions folded into the summary
}

// tombQueue is one stage: an exact key → version map that evicts in FIFO
// order of first insertion. Each map entry carries the sequence number of
// its own order record, so a record left behind by a drop or settle (or
// by a drop-then-reinsert of the same key) is recognizably stale: eviction
// skips it rather than evicting the key's newer incarnation ahead of older
// tombstones, and compaction bounds the order slice at 2·cap however the
// keys churn.
type tombQueue struct {
	cap   int
	seq   uint64
	m     map[string]tombEntry
	order []tombOrder // order[head:] is the queue; compaction reuses the array
	head  int
}

type tombEntry struct {
	v   truetime.Version
	seq uint64
}

type tombOrder struct {
	key string
	seq uint64
}

func newTombstoneCache(capacity int) *tombstoneCache {
	if capacity <= 0 {
		capacity = 4096
	}
	return &tombstoneCache{
		live:    tombQueue{cap: capacity, m: make(map[string]tombEntry)},
		pending: tombQueue{cap: capacity, m: make(map[string]tombEntry)},
	}
}

// put records key at v; a newer version for a key already queued wins in
// place. A new key at capacity first evicts the oldest live entry, which
// is returned for the caller to demote.
func (q *tombQueue) put(key string, v truetime.Version) (victim string, vv truetime.Version, evicted bool) {
	if old, ok := q.m[key]; ok {
		if old.v.Less(v) {
			old.v = v
			q.m[key] = old
		}
		return "", truetime.Version{}, false
	}
	for len(q.m) >= q.cap && q.head < len(q.order) && !evicted {
		r := q.order[q.head]
		q.head++
		if e, ok := q.m[r.key]; ok && e.seq == r.seq {
			delete(q.m, r.key)
			victim, vv, evicted = r.key, e.v, true
		}
	}
	q.seq++
	q.m[key] = tombEntry{v: v, seq: q.seq}
	q.order = append(q.order, tombOrder{key: key, seq: q.seq})
	if len(q.order) > 2*q.cap {
		kept := q.order[:0]
		for _, r := range q.order[q.head:] {
			if e, ok := q.m[r.key]; ok && e.seq == r.seq {
				kept = append(kept, r)
			}
		}
		clear(q.order[len(kept):]) // release the dropped records' keys
		q.order, q.head = kept, 0
	}
	return victim, vv, evicted
}

// insert records key as erased at v, demoting the oldest tombstone into
// the pending-settle queue if the exact cache is full, and folding the
// pending queue's own oldest entry into the coarse summary when that
// overflows too — the formally-bounded residual.
func (t *tombstoneCache) insert(key string, v truetime.Version) {
	if _, ok := t.live.m[key]; !ok {
		// The exact entry supersedes any older pending copy of the same key.
		delete(t.pending.m, key)
	}
	victim, vv, evicted := t.live.put(key, v)
	if !evicted {
		return
	}
	if _, pv, over := t.pending.put(victim, vv); over {
		if t.summary.Less(pv) {
			t.summary = pv
		}
		t.overflow++
	}
}

// settled retires key's pending tombstone once a repair sweep has
// observed the cohort settled at version v (every replica holds the
// tombstone, or every laggard's re-erase was delivered). A pending entry
// newer than v stays — it still needs its own settle.
func (t *tombstoneCache) settled(key string, v truetime.Version) {
	if p, ok := t.pending.m[key]; ok && !v.Less(p.v) {
		delete(t.pending.m, key)
	}
}

// drop removes key's tombstone (a newer SET superseded it). The summary is
// untouched — it only ever grows. Takes the raw key bytes so the hot SET
// path avoids a string conversion (delete with an inline string(k) compiles
// allocation-free).
func (t *tombstoneCache) drop(key []byte) {
	delete(t.live.m, string(key))
	delete(t.pending.m, string(key))
}

// exact returns key's precise tombstone, live or pending.
func (t *tombstoneCache) exact(key []byte) (truetime.Version, bool) {
	if e, ok := t.live.m[string(key)]; ok {
		return e.v, true
	}
	e, ok := t.pending.m[string(key)]
	return e.v, ok
}

// bound returns the highest version that could have erased key: the exact
// tombstone when cached (live or pending), else the summary upper bound.
func (t *tombstoneCache) bound(key []byte) truetime.Version {
	if v, ok := t.exact(key); ok {
		return v
	}
	return t.summary
}

// each enumerates every exact tombstone once: the live cache, then the
// pending-settle entries (a key is never in both; see insert).
func (t *tombstoneCache) each(fn func(key string, v truetime.Version)) {
	for k, e := range t.live.m {
		fn(k, e.v)
	}
	for k, e := range t.pending.m {
		fn(k, e.v)
	}
}

// dropIf removes every exact tombstone whose key satisfies pred.
func (t *tombstoneCache) dropIf(pred func(key string) bool) {
	for _, m := range []map[string]tombEntry{t.live.m, t.pending.m} {
		for k := range m {
			if pred(k) {
				delete(m, k)
			}
		}
	}
}

// len returns the enumerable tombstone count: live entries plus the
// pending-settle queue (both feed bound and cohort scans, so both gate
// the tombLive fast-path shadow).
func (t *tombstoneCache) len() int { return len(t.live.m) + len(t.pending.m) }

// The tombstone cache stays global — its coarse summary bound (§5.2) is a
// whole-backend property (and TestTombstoneSummaryCoarseButConsistent pins
// that) — behind its own leaf mutex, tombMu. Everything below is the
// Backend's only access to it. Reads and drops first consult the atomic
// shadow state so that with no live tombstones (the common case) SETs
// never touch tombMu.

// tombMutate runs fn on the cache under tombMu and refreshes the shadows.
func (b *Backend) tombMutate(fn func(t *tombstoneCache)) {
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	fn(b.tomb)
	b.tombLive.Store(int64(b.tomb.len()))
	b.tombSummarySet.Store(!b.tomb.summary.Zero())
}

func (b *Backend) tombBound(key []byte) truetime.Version {
	if b.tombLive.Load() == 0 && !b.tombSummarySet.Load() {
		return truetime.Version{}
	}
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	return b.tomb.bound(key)
}

// tombExact returns key's precise tombstone, if one is still enumerable.
func (b *Backend) tombExact(key []byte) (truetime.Version, bool) {
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	return b.tomb.exact(key)
}

// tombSummary returns the coarse tombstone-summary version (§5.2).
func (b *Backend) tombSummary() truetime.Version {
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	return b.tomb.summary
}

func (b *Backend) tombInsert(key []byte, v truetime.Version) {
	b.tombMutate(func(t *tombstoneCache) { t.insert(string(key), v) })
}

func (b *Backend) tombDrop(key []byte) {
	if b.tombLive.Load() != 0 {
		b.tombMutate(func(t *tombstoneCache) { t.drop(key) })
	}
}

// tombSettled retires key's pending-settle tombstone after a repair sweep
// observed the erase cohort-settled at v (see tombstoneCache.settled).
func (b *Backend) tombSettled(key string, v truetime.Version) {
	if b.tombLive.Load() != 0 {
		b.tombMutate(func(t *tombstoneCache) { t.settled(key, v) })
	}
}

// tombSummaryFold raises this backend's summary to at least v — the
// receiving half of a handoff's summary transfer. The summary only ever
// grows, so folding is monotone and idempotent.
func (b *Backend) tombSummaryFold(v truetime.Version) {
	b.tombMutate(func(t *tombstoneCache) {
		if t.summary.Less(v) {
			t.summary = v
		}
	})
}

// tombReset empties the cache, summary included (Clear).
func (b *Backend) tombReset() {
	b.tombMutate(func(*tombstoneCache) { b.tomb = newTombstoneCache(b.opt.TombstoneCap) })
}

// eachTombstone enumerates the exact tombstones f admits — the live cache
// plus the pending-settle queue — so scans, handoffs and checkpoints all
// see erases as first-class versioned state. Only tombstones that also
// overflow the pending queue collapse into the §5.2 coarse summary, which
// still blocks stale SETs but is invisible here; that double-overflow-
// before-a-sweep window is the formally-bounded resurrection residual.
func (b *Backend) eachTombstone(f shardFilter, fn func(key []byte, h hashring.KeyHash, v truetime.Version)) {
	b.tombMu.Lock()
	defer b.tombMu.Unlock()
	b.tomb.each(func(k string, v truetime.Version) {
		if h := b.opt.Hash([]byte(k)); f.match(h) {
			fn([]byte(k), h, v)
		}
	})
}
