package backend

import (
	"fmt"
	"testing"

	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

func ver(n int64) truetime.Version { return truetime.Version{Micros: n, ClientID: 1, Seq: 1} }

// ins, bnd, drp and stl reach the cache for a key hashed by default.
func ins(tc *tombstoneCache, k string, v truetime.Version) {
	tc.insert(hashring.DefaultHash([]byte(k)), []byte(k), v)
}

func bnd(tc *tombstoneCache, k string) truetime.Version {
	v, _ := tc.bound(hashring.DefaultHash([]byte(k)), []byte(k))
	return v
}

func drp(tc *tombstoneCache, k string) { tc.drop(hashring.DefaultHash([]byte(k)), []byte(k)) }

func stl(tc *tombstoneCache, k string, v truetime.Version) {
	tc.settled(hashring.DefaultHash([]byte(k)), []byte(k), v)
}

// stageOf reports whether k has a precise tombstone, and on which list.
func stageOf(tc *tombstoneCache, k string) (int32, bool) {
	i, ok := tc.find(hashring.DefaultHash([]byte(k)), []byte(k))
	return tc.nodes[i].stage, ok
}

func TestTombstoneExactLookup(t *testing.T) {
	tc := newTombstoneCache(4)
	ins(tc, "a", ver(10))
	if got := bnd(tc, "a"); got != ver(10) {
		t.Errorf("bound(a) = %v", got)
	}
	if got := bnd(tc, "absent"); !got.Zero() {
		t.Errorf("bound(absent) = %v, want zero (empty summary)", got)
	}
}

func TestTombstoneNewerWins(t *testing.T) {
	tc := newTombstoneCache(4)
	ins(tc, "a", ver(10))
	ins(tc, "a", ver(5)) // older: ignored
	if got := bnd(tc, "a"); got != ver(10) {
		t.Errorf("bound = %v, want v10", got)
	}
	ins(tc, "a", ver(20))
	if got := bnd(tc, "a"); got != ver(20) {
		t.Errorf("bound = %v, want v20", got)
	}
	if tc.len() != 1 {
		t.Errorf("len = %d", tc.len())
	}
}

// TestTombstonePendingKeepsExactBound: a tombstone evicted from the exact
// cache parks in the pending-settle queue, so its bound stays PRECISE (and
// enumerable to repair) instead of collapsing into the coarse summary.
func TestTombstonePendingKeepsExactBound(t *testing.T) {
	tc := newTombstoneCache(2)
	ins(tc, "a", ver(10))
	ins(tc, "b", ver(20))
	ins(tc, "c", ver(5)) // evicts "a" (FIFO) into the pending queue
	if tc.n[exactStage] != 2 {
		t.Fatalf("entries = %d, want 2", tc.n[exactStage])
	}
	if got := bnd(tc, "a"); got != ver(10) {
		t.Errorf("bound(a) = %v, want exact pending v10", got)
	}
	// Unrelated keys are NOT bounded until the pending queue itself
	// overflows — the summary is the second stage, not the first.
	if got := bnd(tc, "never-seen"); !got.Zero() {
		t.Errorf("bound(never-seen) = %v, want zero (summary unset)", got)
	}
	if tc.overflow != 0 {
		t.Errorf("overflow = %d, want 0", tc.overflow)
	}
}

// TestTombstoneSummaryUpperBound: tombstones overflowing BOTH stages are
// approximated by the summary — coarse (it bounds unrelated keys too) but
// never lower than the evicted version (§5.2: "bounded above... never
// inconsistent").
func TestTombstoneSummaryUpperBound(t *testing.T) {
	tc := newTombstoneCache(1) // pendingCap == cap == 1
	ins(tc, "a", ver(10))
	ins(tc, "b", ver(20)) // "a" → pending
	ins(tc, "c", ver(5))  // "b" → pending, "a" overflows → summary v10
	if got := bnd(tc, "a"); got.Less(ver(10)) {
		t.Errorf("bound(a) = %v < evicted version", got)
	}
	if got := bnd(tc, "b"); got != ver(20) {
		t.Errorf("bound(b) = %v, want exact pending v20", got)
	}
	// The summary also bounds never-erased keys (documented coarseness).
	if got := bnd(tc, "never-seen"); got.Less(ver(10)) {
		t.Errorf("summary bound = %v", got)
	}
	if tc.overflow != 1 {
		t.Errorf("overflow = %d, want 1", tc.overflow)
	}
}

func TestTombstoneSummaryMonotone(t *testing.T) {
	tc := newTombstoneCache(1)
	var last truetime.Version
	for i := 1; i <= 50; i++ {
		ins(tc, fmt.Sprintf("k%d", i), ver(int64(i)))
		b := bnd(tc, "probe")
		if b.Less(last) {
			t.Fatalf("summary regressed: %v after %v", b, last)
		}
		last = b
	}
	// With both stages at capacity 1, the 48 oldest overflowed into the
	// summary: summary >= v48 (k49 pending, k50 live).
	if bnd(tc, "probe").Less(ver(48)) {
		t.Errorf("summary = %v, want >= v48", bnd(tc, "probe"))
	}
}

func TestTombstoneDrop(t *testing.T) {
	tc := newTombstoneCache(4)
	ins(tc, "a", ver(10))
	drp(tc, "a")
	if got := bnd(tc, "a"); !got.Zero() {
		t.Errorf("after drop, bound = %v", got)
	}
	// Dropping one key must not shrink another key's pending bound.
	tc2 := newTombstoneCache(1)
	ins(tc2, "x", ver(10))
	ins(tc2, "y", ver(20)) // x evicted → pending v10
	drp(tc2, "y")
	if bnd(tc2, "x").Less(ver(10)) {
		t.Error("drop shrank an unrelated pending bound")
	}
	// Nor the summary, once set by double overflow.
	tc3 := newTombstoneCache(1)
	ins(tc3, "x", ver(10))
	ins(tc3, "y", ver(20))
	ins(tc3, "z", ver(30)) // x overflows → summary v10
	drp(tc3, "z")
	if bnd(tc3, "anything").Less(ver(10)) {
		t.Error("drop shrank the summary")
	}
}

// TestTombstonePendingSettled: repair retires a pending tombstone only at
// a settle version at least as new as the parked erase.
func TestTombstonePendingSettled(t *testing.T) {
	tc := newTombstoneCache(1)
	ins(tc, "a", ver(10))
	ins(tc, "b", ver(20)) // a → pending v10
	stl(tc, "a", ver(5))  // older settle: must NOT retire it
	if got := bnd(tc, "a"); got != ver(10) {
		t.Errorf("bound(a) = %v after stale settle, want v10", got)
	}
	stl(tc, "a", ver(10))
	if got := bnd(tc, "a"); !got.Zero() {
		t.Errorf("bound(a) = %v after settle, want zero", got)
	}
	if tc.len() != 1 { // only "b" remains
		t.Errorf("len = %d, want 1", tc.len())
	}
}

func TestTombstoneZeroCapDefaults(t *testing.T) {
	tc := newTombstoneCache(0)
	if tc.cap <= 0 {
		t.Error("zero capacity not defaulted")
	}
}

// TestTombstoneQueuesStayBounded: erase → set → erase churn over a few keys
// (drop frees a node and strands its key bytes each cycle) must not grow the
// arena's nodes or key bytes, and a re-erased key must not inherit its stale
// early position: the victim is always the oldest live tombstone.
func TestTombstoneQueuesStayBounded(t *testing.T) {
	const capacity, keys, cycles = 4, 8, 1_000_000
	tc := newTombstoneCache(capacity)
	age := map[string]int{} // live key → cycle of the insert that created it
	for i := 0; i < cycles; i++ {
		k := fmt.Sprintf("k%d", i%keys)
		if i%3 == 0 {
			drp(tc, k) // the SET between two erases
			delete(age, k)
		}
		stage, ok := stageOf(tc, k)
		wasLive := ok && stage == exactStage
		oldest, oldestAge := "", i
		for lk, a := range age {
			if a < oldestAge {
				oldest, oldestAge = lk, a
			}
		}
		full := tc.n[exactStage] >= capacity
		ins(tc, k, ver(int64(i+1)))
		if !wasLive {
			if full {
				if stage, ok := stageOf(tc, oldest); ok && stage == exactStage {
					t.Fatalf("cycle %d: inserting %s at capacity did not evict the oldest live tombstone %s", i, k, oldest)
				}
				if got := bnd(tc, oldest); got != ver(int64(oldestAge+1)) {
					t.Fatalf("cycle %d: evicted %s lost its exact bound: %v", i, oldest, got)
				}
				delete(age, oldest)
			}
			age[k] = i
		}
		if len(tc.nodes) > 2+2*capacity || cap(tc.keys) > 2*(2*capacity+1)*len(k) {
			t.Fatalf("cycle %d: arena grew to %d nodes / %d key bytes, cap %d", i, len(tc.nodes), cap(tc.keys), capacity)
		}
	}
}

// TestTombstoneStorageAllocations: filling the cache with N tombstones
// allocates far fewer than N times — the node slice and the key arena
// double (O(log N)); the Go map splits a table per ~1 024 slots, about
// N/100 — and once both lists are full an insert of a fresh key,
// demoting one tombstone and folding another, allocates nothing.
func TestTombstoneStorageAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const capacity = 4096
	keys := make([][]byte, 4*capacity)
	hashes := make([]hashring.KeyHash, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("fill-%08d", i))
		hashes[i] = hashring.DefaultHash(keys[i])
	}
	var tc *tombstoneCache
	next := 0
	insert := func() {
		tc.insert(hashes[next], keys[next], ver(int64(next+1)))
		next++
	}
	fill := testing.AllocsPerRun(1, func() {
		tc, next = newTombstoneCache(capacity), 0
		for next < 2*capacity {
			insert()
		}
	})
	if fill > 2*capacity/32 {
		t.Errorf("filling %d tombstones allocated %v times, want fewer than N/32", 2*capacity, fill)
	}
	if got := testing.AllocsPerRun(1000, insert); got != 0 {
		t.Errorf("%v allocations per insert into a full cache, want 0", got)
	}
	if tc.overflow == 0 || tc.len() != 2*capacity {
		t.Errorf("overflow %d, len %d: the cache was not full", tc.overflow, tc.len())
	}
}
