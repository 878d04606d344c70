package backend

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
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
	if !ok {
		return 0, false
	}
	return tc.nodes[i].stage, true
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
// (drop frees a node each cycle) must keep the arena the first insert took,
// and a re-erased key must not inherit its stale early position: the
// victim is always the oldest live tombstone.
func TestTombstoneQueuesStayBounded(t *testing.T) {
	const capacity, keys, cycles = 4, 8, 1_000_000
	tc := newTombstoneCache(capacity)
	var arena *tombNode     // the storage the first insert took
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
		if arena == nil {
			arena = &tc.nodes[0]
		}
		if len(tc.nodes) != 2+2*capacity || &tc.nodes[0] != arena || tc.spill != nil {
			t.Fatalf("cycle %d: arena of %d nodes (cap %d) moved or spilled", i, len(tc.nodes), capacity)
		}
	}
}

// TestTombstoneSpilledKeys: a key past tombCell lives in its node's spill
// buffer, which the node keeps while it holds short keys and reuses for
// its next long one. A cache whose every other key is long, of growing
// lengths, answers step for step as one whose keys are all short: the
// same lists in the same order, versions, summary and overflow.
func TestTombstoneSpilledKeys(t *testing.T) {
	const capacity, nkeys = 8, 40
	short, mixed := make([][]byte, nkeys), make([][]byte, nkeys)
	index := map[string]int{}
	for i := range short {
		short[i] = fmt.Appendf(nil, "k%d", i)
		mixed[i] = short[i]
		if i%2 == 0 {
			mixed[i] = fmt.Appendf(nil, "k%d-%s", i, strings.Repeat("x", tombCell+i))
		}
		index[string(short[i])], index[string(mixed[i])] = i, i
	}
	view := func(c *tombstoneCache) string {
		var b strings.Builder
		c.each(func(i int32) {
			k, ok := index[string(c.key(i))]
			fmt.Fprintf(&b, "%d,%v/%d@%v ", k, ok, c.nodes[i].stage, c.nodes[i].v)
		})
		fmt.Fprintf(&b, "| %v %d", c.summary, c.overflow)
		return b.String()
	}
	caches := []struct {
		c    *tombstoneCache
		keys [][]byte
	}{{newTombstoneCache(capacity), short}, {newTombstoneCache(capacity), mixed}}
	rng := rand.New(rand.NewSource(1))
	for step := range 4000 {
		k, op, v := rng.Intn(nkeys), rng.Intn(4), ver(int64(1+rng.Intn(100)))
		for _, tc := range caches {
			key := tc.keys[k]
			h := hashring.DefaultHash(key)
			switch op {
			case 0, 1:
				tc.c.insert(h, key, v)
			case 2:
				tc.c.drop(h, key)
			default:
				tc.c.settled(h, key, v)
			}
		}
		if a, b := view(caches[0].c), view(caches[1].c); a != b {
			t.Fatalf("step %d: short keys %s\nmixed keys %s", step, a, b)
		}
	}
	if caches[1].c.spill == nil || caches[1].c.overflow == 0 {
		t.Fatal("no key spilled or no tombstone folded: the run proves nothing")
	}
}

// TestTombstoneStorageAllocations: a cache takes all of its storage at its
// first insert — one arena of 2·cap+2 nodes at the default cap — and then
// allocates nothing while it fills, past overflow (each fresh key demotes
// one tombstone and folds another) or in steady drop/re-erase churn. A key
// longer than tombCell pays once per node: the spill table at the first
// one, then a buffer per node, which the node keeps for its next long key.
func TestTombstoneStorageAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const capacity = 8192 // Options.TombstoneCap's default
	for _, tc := range []struct {
		name      string
		keyLen    int
		takeCount uint64 // allocations taking the storage, filling included
		takeBytes uint64 // their bound, or 0
	}{
		{"short keys", 20, 1, 1600 << 10},              // the arena: TombstoneCap's doc states 1.5 MiB
		{"long keys", 2 * tombCell, 2 + 2*capacity, 0}, // the arena, the spill table, a buffer per node
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([][]byte, 5*capacity)
			hashes := make([]hashring.KeyHash, len(keys))
			for i := range keys {
				keys[i] = fmt.Appendf(nil, "fill-%0*d", tc.keyLen-len("fill-"), i)
				hashes[i] = hashring.DefaultHash(keys[i])
			}
			// The best of three fresh caches, phase by phase: the runtime
			// may allocate on its own in any one window.
			best := [4]uint64{math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64}
			for range 3 {
				c, next := newTombstoneCache(capacity), 0
				insert := func(n int) {
					for range n {
						c.insert(hashes[next], keys[next], ver(int64(next+1)))
						next++
					}
				}
				churn := func() { // a SET drops a live tombstone; a fresh ERASE takes its node
					for j := next - capacity/2; j < next; j++ {
						c.drop(hashes[j], keys[j])
					}
					insert(capacity / 2)
				}
				var taken uint64
				best[0] = min(best[0], countAllocs(&taken, func() { insert(2 * capacity) }))
				best[1] = min(best[1], taken)
				best[2] = min(best[2], countAllocs(nil, func() { insert(2 * capacity) }))
				if c.overflow == 0 || c.len() != 2*capacity {
					t.Fatalf("overflow %d, len %d: the cache was not full", c.overflow, c.len())
				}
				best[3] = min(best[3], countAllocs(nil, churn))
			}
			if best[0] != tc.takeCount {
				t.Errorf("taking the storage and filling both lists: %d allocations, want %d", best[0], tc.takeCount)
			}
			if tc.takeBytes != 0 && best[1] > tc.takeBytes {
				t.Errorf("the storage took %d B, want at most %d", best[1], tc.takeBytes)
			}
			if best[2] != 0 {
				t.Errorf("%d allocations inserting past overflow, want 0", best[2])
			}
			if best[3] != 0 {
				t.Errorf("%d allocations in drop/erase churn, want 0", best[3])
			}
		})
	}
}

// countAllocs runs fn and returns how many heap allocations it made, and
// in *took (when set) how many bytes they took. It collects first: a
// cycle the key setup left running otherwise adds stray counts.
func countAllocs(took *uint64, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if took != nil {
		*took = after.TotalAlloc - before.TotalAlloc
	}
	return after.Mallocs - before.Mallocs
}

// TestTombItemsKeysAreCopies: the items a checkpoint or a handoff takes
// keep their keys after the cache reuses the nodes that held them. Short
// keys live in a node's cell and long ones in its spill buffer, and churn
// through a small cache rewrites both in place.
func TestTombItemsKeysAreCopies(t *testing.T) {
	const capacity = 4
	r := newRig(t, Options{Shard: 0, TombstoneCap: capacity})
	keyOf := func(round, i int) string {
		if i%2 == 0 {
			return fmt.Sprintf("r%d-k%d", round, i)
		}
		return fmt.Sprintf("r%d-k%d-%s", round, i, strings.Repeat("x", tombCell))
	}
	for i := 0; i < capacity; i++ {
		if applied, _ := r.b.ApplyErase([]byte(keyOf(0, i)), r.v()); !applied {
			t.Fatalf("erase %s not applied", keyOf(0, i))
		}
	}
	items, _ := r.b.tombItems()
	if len(items) != capacity {
		t.Fatalf("took %d tombstones, want %d", len(items), capacity)
	}
	want := make([]string, len(items))
	for i, it := range items {
		want[i] = string(it.Key)
	}
	// Every round's erases push the earlier rounds' tombstones through the
	// pending list and out, so their nodes come back with new keys.
	for round := 1; round <= 8; round++ {
		for i := 0; i < capacity; i++ {
			r.b.ApplyErase([]byte(keyOf(round, i)), r.v())
		}
	}
	for i, it := range items {
		if string(it.Key) != want[i] {
			t.Errorf("item %d: key %q after churn, was %q", i, it.Key, want[i])
		}
	}
}
