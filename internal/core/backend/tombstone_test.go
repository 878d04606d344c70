package backend

import (
	"fmt"
	"testing"

	"cliquemap/internal/truetime"
)

func ver(n int64) truetime.Version { return truetime.Version{Micros: n, ClientID: 1, Seq: 1} }

func TestTombstoneExactLookup(t *testing.T) {
	tc := newTombstoneCache(4)
	tc.insert("a", ver(10))
	if got := tc.bound([]byte("a")); got != ver(10) {
		t.Errorf("bound(a) = %v", got)
	}
	if got := tc.bound([]byte("absent")); !got.Zero() {
		t.Errorf("bound(absent) = %v, want zero (empty summary)", got)
	}
}

func TestTombstoneNewerWins(t *testing.T) {
	tc := newTombstoneCache(4)
	tc.insert("a", ver(10))
	tc.insert("a", ver(5)) // older: ignored
	if got := tc.bound([]byte("a")); got != ver(10) {
		t.Errorf("bound = %v, want v10", got)
	}
	tc.insert("a", ver(20))
	if got := tc.bound([]byte("a")); got != ver(20) {
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
	tc.insert("a", ver(10))
	tc.insert("b", ver(20))
	tc.insert("c", ver(5)) // evicts "a" (FIFO) into the pending queue
	if len(tc.live.m) != 2 {
		t.Fatalf("entries = %d, want 2", len(tc.live.m))
	}
	if got := tc.bound([]byte("a")); got != ver(10) {
		t.Errorf("bound(a) = %v, want exact pending v10", got)
	}
	// Unrelated keys are NOT bounded until the pending queue itself
	// overflows — the summary is the second stage, not the first.
	if got := tc.bound([]byte("never-seen")); !got.Zero() {
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
	tc.insert("a", ver(10))
	tc.insert("b", ver(20)) // "a" → pending
	tc.insert("c", ver(5))  // "b" → pending, "a" overflows → summary v10
	if got := tc.bound([]byte("a")); got.Less(ver(10)) {
		t.Errorf("bound(a) = %v < evicted version", got)
	}
	if got := tc.bound([]byte("b")); got != ver(20) {
		t.Errorf("bound(b) = %v, want exact pending v20", got)
	}
	// The summary also bounds never-erased keys (documented coarseness).
	if got := tc.bound([]byte("never-seen")); got.Less(ver(10)) {
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
		tc.insert(fmt.Sprintf("k%d", i), ver(int64(i)))
		b := tc.bound([]byte("probe"))
		if b.Less(last) {
			t.Fatalf("summary regressed: %v after %v", b, last)
		}
		last = b
	}
	// With both stages at capacity 1, the 48 oldest overflowed into the
	// summary: summary >= v48 (k49 pending, k50 live).
	if tc.bound([]byte("probe")).Less(ver(48)) {
		t.Errorf("summary = %v, want >= v48", tc.bound([]byte("probe")))
	}
}

func TestTombstoneDrop(t *testing.T) {
	tc := newTombstoneCache(4)
	tc.insert("a", ver(10))
	tc.drop([]byte("a"))
	if got := tc.bound([]byte("a")); !got.Zero() {
		t.Errorf("after drop, bound = %v", got)
	}
	// Dropping one key must not shrink another key's pending bound.
	tc2 := newTombstoneCache(1)
	tc2.insert("x", ver(10))
	tc2.insert("y", ver(20)) // x evicted → pending v10
	tc2.drop([]byte("y"))
	if tc2.bound([]byte("x")).Less(ver(10)) {
		t.Error("drop shrank an unrelated pending bound")
	}
	// Nor the summary, once set by double overflow.
	tc3 := newTombstoneCache(1)
	tc3.insert("x", ver(10))
	tc3.insert("y", ver(20))
	tc3.insert("z", ver(30)) // x overflows → summary v10
	tc3.drop([]byte("z"))
	if tc3.bound([]byte("anything")).Less(ver(10)) {
		t.Error("drop shrank the summary")
	}
}

// TestTombstonePendingSettled: repair retires a pending tombstone only at
// a settle version at least as new as the parked erase.
func TestTombstonePendingSettled(t *testing.T) {
	tc := newTombstoneCache(1)
	tc.insert("a", ver(10))
	tc.insert("b", ver(20)) // a → pending v10
	tc.settled("a", ver(5)) // older settle: must NOT retire it
	if got := tc.bound([]byte("a")); got != ver(10) {
		t.Errorf("bound(a) = %v after stale settle, want v10", got)
	}
	tc.settled("a", ver(10))
	if got := tc.bound([]byte("a")); !got.Zero() {
		t.Errorf("bound(a) = %v after settle, want zero", got)
	}
	if tc.len() != 1 { // only "b" remains
		t.Errorf("len = %d, want 1", tc.len())
	}
}

func TestTombstoneZeroCapDefaults(t *testing.T) {
	tc := newTombstoneCache(0)
	if tc.live.cap <= 0 {
		t.Error("zero capacity not defaulted")
	}
}

// TestTombstoneQueuesStayBounded: erase → set → erase churn over a few keys
// (drop leaves an order record behind each cycle) must not grow either FIFO
// queue, and a re-erased key must not inherit its stale early position: the
// victim is always the oldest live tombstone.
func TestTombstoneQueuesStayBounded(t *testing.T) {
	const capacity, keys, cycles = 4, 8, 1_000_000
	tc := newTombstoneCache(capacity)
	age := map[string]int{} // live key → cycle of the insert that created it
	for i := 0; i < cycles; i++ {
		k := fmt.Sprintf("k%d", i%keys)
		if i%3 == 0 {
			tc.drop([]byte(k)) // the SET between two erases
			delete(age, k)
		}
		_, wasLive := tc.live.m[k]
		oldest, oldestAge := "", i
		for lk, a := range age {
			if a < oldestAge {
				oldest, oldestAge = lk, a
			}
		}
		full := len(tc.live.m) >= capacity
		tc.insert(k, ver(int64(i+1)))
		if !wasLive {
			if full {
				if _, still := tc.live.m[oldest]; still {
					t.Fatalf("cycle %d: inserting %s at capacity did not evict the oldest live tombstone %s", i, k, oldest)
				}
				if got := tc.bound([]byte(oldest)); got != ver(int64(oldestAge+1)) {
					t.Fatalf("cycle %d: evicted %s lost its exact bound: %v", i, oldest, got)
				}
				delete(age, oldest)
			}
			age[k] = i
		}
		if len(tc.live.order) > 2*capacity || len(tc.pending.order) > 2*capacity {
			t.Fatalf("cycle %d: order queues grew to %d / %d, cap %d", i, len(tc.live.order), len(tc.pending.order), capacity)
		}
	}
}
