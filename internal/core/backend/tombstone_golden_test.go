package backend

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

// tombGoldenRun reaches the cache through these, so a change of the
// cache's signatures changes only them.
func goldenHash(k string) hashring.KeyHash { return hashring.DefaultHash([]byte(k)) }
func goldenInsert(tc *tombstoneCache, k string, v truetime.Version) {
	tc.insert(goldenHash(k), []byte(k), v)
}
func goldenDrop(tc *tombstoneCache, k string) { tc.drop(goldenHash(k), []byte(k)) }
func goldenSettled(tc *tombstoneCache, k string, v truetime.Version) {
	tc.settled(goldenHash(k), []byte(k), v)
}
func goldenDropIf(tc *tombstoneCache, pred func(h hashring.KeyHash) bool) { tc.dropIf(pred) }
func goldenExact(tc *tombstoneCache, k string) (truetime.Version, bool) {
	if v, ok := tc.bound(goldenHash(k), []byte(k)); ok {
		return v, true
	}
	return truetime.Version{}, false
}
func goldenBound(tc *tombstoneCache, k string) truetime.Version {
	v, _ := tc.bound(goldenHash(k), []byte(k))
	return v
}
func goldenEach(tc *tombstoneCache, fn func(k string, v truetime.Version)) {
	tc.each(func(i int32) { fn(string(tc.key(i)), tc.nodes[i].v) })
}

// goldenStages returns the exact and the pending-settle keys, sorted.
func goldenStages(tc *tombstoneCache) (live, pending []string) {
	tc.each(func(i int32) {
		if tc.nodes[i].stage == exactStage {
			live = append(live, string(tc.key(i)))
		} else {
			pending = append(pending, string(tc.key(i)))
		}
	})
	slices.Sort(live)
	slices.Sort(pending)
	return live, pending
}

// tombGoldenRun runs one seeded sequence of insert/drop/settled/dropIf
// over a cache of capacity cap and logs, after every step, each stage's
// keys (so which key each insert demoted and which one overflowed),
// overflow, the summary, every key's exact and bound answers, and the each
// set.
func tombGoldenRun(seed int64, capacity int) string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 3*capacity+6)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d%s", i, strings.Repeat("x", rng.Intn(24)))
	}
	version := func() truetime.Version {
		return truetime.Version{Micros: int64(1 + rng.Intn(60)), ClientID: uint64(1 + rng.Intn(2)), Seq: 1}
	}
	tc := newTombstoneCache(capacity)
	var log strings.Builder
	for step := 0; step < 400; step++ {
		k := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(20); {
		case r < 10:
			v := version()
			goldenInsert(tc, k, v)
			fmt.Fprintf(&log, "insert %s %v\n", k, v)
		case r < 14:
			goldenDrop(tc, k)
			fmt.Fprintf(&log, "drop %s\n", k)
		case r < 19:
			v := version()
			goldenSettled(tc, k, v)
			fmt.Fprintf(&log, "settled %s %v\n", k, v)
		default:
			m := uint64(step % 3)
			goldenDropIf(tc, func(h hashring.KeyHash) bool { return h.Lo%3 == m })
			fmt.Fprintf(&log, "dropIf %d\n", m)
		}
		live, pending := goldenStages(tc)
		fmt.Fprintf(&log, " live=%v pending=%v overflow=%d summary=%v\n", live, pending, tc.overflow, tc.summary)
		for _, p := range keys {
			v, ok := goldenExact(tc, p)
			fmt.Fprintf(&log, " %s exact=%v,%v bound=%v\n", p, v, ok, goldenBound(tc, p))
		}
		var each []string
		goldenEach(tc, func(k string, v truetime.Version) { each = append(each, fmt.Sprintf("%s@%v", k, v)) })
		slices.Sort(each)
		fmt.Fprintf(&log, " each=%v len=%d\n", each, tc.len())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(log.String())))[:16]
}

// TestTombstoneGolden holds the cache to digests taken on the string-keyed
// cache it replaced (two map-and-order-slice FIFO queues): the same
// demotions, overflows, summaries and answers, step for step.
func TestTombstoneGolden(t *testing.T) {
	want := map[string]string{
		"cap1/seed1": "140f5688731cbbdb",
		"cap1/seed2": "fd5369c3c1031489",
		"cap1/seed3": "0b36ba6d632b5dec",
		"cap2/seed1": "09f53a25b2024145",
		"cap2/seed2": "ff14fa57ff820f47",
		"cap2/seed3": "83da2e3ec007ee1d",
		"cap8/seed1": "9aad0db56012ccbf",
		"cap8/seed2": "9cf4abfef9e75fbf",
		"cap8/seed3": "abd06e17ac14d6d7",
	}
	for _, capacity := range []int{1, 2, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("cap%d/seed%d", capacity, seed)
			got := tombGoldenRun(seed, capacity)
			if want[name] != got {
				t.Errorf("%s: digest %s, want %s", name, got, want[name])
			}
		}
	}
}

// TestTombstoneHashCollision: the key, not its hash, is a tombstone's
// identity. Under an injected Hash that gives two keys one KeyHash, the
// second key's erase folds into the summary (which only blocks), the
// first keeps its exact tombstone, and neither can be resurrected by a
// stale SET.
func TestTombstoneHashCollision(t *testing.T) {
	a, b := []byte("twin-a"), []byte("twin-b")
	hash := func(k []byte) hashring.KeyHash {
		if string(k) == string(b) {
			k = a
		}
		return hashring.DefaultHash(k)
	}
	r := newRig(t, Options{Shard: 0, Hash: hash})
	vOld, vA, vB := r.v(), r.v(), r.v()
	if applied, _ := r.b.ApplyErase(a, vA); !applied {
		t.Fatal("erase of twin-a rejected")
	}
	if applied, _ := r.b.ApplyErase(b, vB); !applied {
		t.Fatal("erase of twin-b rejected")
	}
	if v, exact := r.b.tombBound(hash(a), a); !exact || v != vA {
		t.Errorf("twin-a bound = %v exact=%v, want its own v%v", v, exact, vA)
	}
	if v, exact := r.b.tombBound(hash(b), b); exact || v != vB {
		t.Errorf("twin-b bound = %v exact=%v, want the summary at %v", v, exact, vB)
	}
	if r.b.tomb.overflow != 1 {
		t.Errorf("overflow = %d, want the one folded erase", r.b.tomb.overflow)
	}
	var each []string
	r.b.eachTombstone(shardFilter{}, func(key []byte, _ hashring.KeyHash, v truetime.Version) {
		each = append(each, fmt.Sprintf("%s@%v", key, v))
	})
	if want := []string{fmt.Sprintf("twin-a@%v", vA)}; !slices.Equal(each, want) {
		t.Errorf("enumerated %v, want %v", each, want)
	}
	for _, k := range [][]byte{a, b} {
		if applied, _, _ := r.b.ApplySet(k, []byte("zombie"), vOld); applied {
			t.Errorf("stale SET resurrected %s", k)
		}
	}
	// A SET of twin-b leaves twin-a's exact tombstone alone.
	tc := r.b.tomb
	tc.drop(hash(b), b)
	tc.settled(hash(b), b, vB)
	if v, exact := tc.bound(hash(a), a); !exact || v != vA {
		t.Errorf("twin-b's drop and settle reached twin-a: %v exact=%v", v, exact)
	}
}
