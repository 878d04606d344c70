package hashring

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// sampleHashes returns a deterministic sampled keyspace: hashes of
// "key-0000..." through n, the same keys every run.
func sampleHashes(n int) []KeyHash {
	hs := make([]KeyHash, n)
	for i := range hs {
		hs[i] = DefaultHash([]byte(fmt.Sprintf("key-%08d", i)))
	}
	return hs
}

func equalMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{Name: fmt.Sprintf("cell-%d", i), Weight: 1}
	}
	return ms
}

func TestWeightedRingDeterministic(t *testing.T) {
	a := BuildWeighted(equalMembers(5), 0)
	b := BuildWeighted(equalMembers(5), 0)
	for _, h := range sampleHashes(5000) {
		if a.Owner(h) != b.Owner(h) {
			t.Fatal("two builds from equal inputs route differently")
		}
	}
}

func TestWeightedRingSharesTrackWeights(t *testing.T) {
	members := []Member{
		{Name: "us", Weight: 1},
		{Name: "eu", Weight: 2},
		{Name: "asia", Weight: 1},
	}
	r := BuildWeighted(members, 0)
	shares := r.Shares()
	total := 0.0
	for i, s := range shares {
		want := members[i].Weight / 4.0
		if math.Abs(s-want) > 0.08 {
			t.Errorf("%s share %.3f, want ~%.3f", members[i].Name, s, want)
		}
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}

	// Sampled ownership must agree with the analytic arc shares.
	counts := make([]int, len(members))
	hs := sampleHashes(200000)
	for _, h := range hs {
		counts[r.Owner(h)]++
	}
	for i, c := range counts {
		got := float64(c) / float64(len(hs))
		if math.Abs(got-shares[i]) > 0.01 {
			t.Errorf("%s sampled share %.3f vs analytic %.3f", members[i].Name, got, shares[i])
		}
	}
}

// movement reports the fraction of hs whose owner name changed between
// rings, plus the set of members keys moved away from.
func movement(t *testing.T, a, b *WeightedRing, hs []KeyHash) (frac float64, movedFrom map[string]int) {
	t.Helper()
	moved := 0
	movedFrom = map[string]int{}
	for _, h := range hs {
		was, now := a.OwnerName(h), b.OwnerName(h)
		if was != now {
			moved++
			movedFrom[was]++
		}
	}
	return float64(moved) / float64(len(hs)), movedFrom
}

// slack on the 1/N movement bound: virtual-node placement has bounded
// variance (~1/sqrt(vnodes) relative), and the sampled keyspace adds a
// little more. 4 points of absolute slack covers both at 128 vnodes.
const movementSlack = 0.04

func TestWeightedRingRemoveMovesOnlyRemovedRange(t *testing.T) {
	const n = 5
	hs := sampleHashes(100000)
	before := BuildWeighted(equalMembers(n), 0)
	removed := equalMembers(n)
	removed[2].Weight = 0 // drop cell-2 without delisting it
	after := BuildWeighted(removed, 0)

	frac, movedFrom := movement(t, before, after, hs)
	if bound := 1.0/n + movementSlack; frac > bound {
		t.Errorf("removal moved %.3f of keyspace, bound %.3f", frac, bound)
	}
	// Strong consistent-hashing property: every moved key was owned by
	// the removed member; nobody else's keys shuffle.
	for from, c := range movedFrom {
		if from != "cell-2" {
			t.Errorf("%d keys moved away from untouched member %s", c, from)
		}
	}
	for _, h := range hs {
		if after.OwnerName(h) == "cell-2" {
			t.Fatal("zero-weight member still owns keys")
		}
	}
}

func TestWeightedRingAddMovesBoundedRange(t *testing.T) {
	const n = 5
	hs := sampleHashes(100000)
	before := BuildWeighted(equalMembers(n-1), 0)
	after := BuildWeighted(equalMembers(n), 0)

	frac, movedFrom := movement(t, before, after, hs)
	if bound := 1.0/n + movementSlack; frac > bound {
		t.Errorf("add moved %.3f of keyspace, bound %.3f", frac, bound)
	}
	// Adds pull keys in from every member, but each moved key must land
	// on the new member — no unrelated shuffling.
	_ = movedFrom
	for _, h := range hs {
		if before.OwnerName(h) != after.OwnerName(h) && after.OwnerName(h) != "cell-4" {
			t.Fatal("key moved between two pre-existing members on add")
		}
	}
}

func TestWeightedRingReweightMovesBoundedRange(t *testing.T) {
	const n = 4
	hs := sampleHashes(100000)
	before := BuildWeighted(equalMembers(n), 0)
	demoted := equalMembers(n)
	demoted[1].Weight = 0.25 // health demotion shape: 1 → 0.25
	after := BuildWeighted(demoted, 0)

	frac, movedFrom := movement(t, before, after, hs)
	if bound := 1.0/n + movementSlack; frac > bound {
		t.Errorf("re-weight moved %.3f of keyspace, bound %.3f", frac, bound)
	}
	for from, c := range movedFrom {
		if from != "cell-1" {
			t.Errorf("%d keys moved away from untouched member %s on demotion", c, from)
		}
	}
	// Demotion keeps a proportional slice: the surviving arcs are the
	// same virtual nodes, so the demoted member's share lands near its
	// weight fraction 0.25/3.25.
	shares := after.Shares()
	if want := 0.25 / 3.25; math.Abs(shares[1]-want) > movementSlack {
		t.Errorf("demoted member share %.3f, want ~%.3f", shares[1], want)
	}
}

func TestWeightedRingEmptyAndSingle(t *testing.T) {
	empty := BuildWeighted(nil, 0)
	if empty.Owner(DefaultHash([]byte("k"))) != -1 || empty.OwnerName(DefaultHash([]byte("k"))) != "" {
		t.Error("empty ring should own nothing")
	}
	dead := BuildWeighted([]Member{{Name: "x", Weight: 0}}, 0)
	if dead.Owner(DefaultHash([]byte("k"))) != -1 {
		t.Error("all-zero-weight ring should own nothing")
	}
	solo := BuildWeighted([]Member{{Name: "only", Weight: 1}}, 0)
	for _, h := range sampleHashes(100) {
		if solo.OwnerName(h) != "only" {
			t.Fatal("single-member ring must own everything")
		}
	}
}

func TestOrDefault(t *testing.T) {
	if OrDefault(nil)([]byte("k")) != DefaultHash([]byte("k")) {
		t.Error("OrDefault(nil) is not DefaultHash")
	}
	custom := func([]byte) KeyHash { return KeyHash{Hi: 7, Lo: 9} }
	if OrDefault(custom)([]byte("k")) != (KeyHash{Hi: 7, Lo: 9}) {
		t.Error("OrDefault dropped a non-nil hash")
	}
}

func TestFromPairGuardsZero(t *testing.T) {
	h := FromPair(func([]byte) (uint64, uint64) { return 0, 0 })
	if h([]byte("k")).Zero() {
		t.Error("FromPair let the reserved zero hash through")
	}
	h2 := FromPair(func(key []byte) (uint64, uint64) { return 3, 4 })
	if h2([]byte("k")) != (KeyHash{Hi: 3, Lo: 4}) {
		t.Error("FromPair altered a non-zero pair")
	}
}

// TestWeightedRingConcurrentRouteReweight is the -race hammer: readers
// route through an atomically swapped ring while a writer re-weights,
// mimicking the tier router's rebuild-and-swap discipline.
func TestWeightedRingConcurrentRouteReweight(t *testing.T) {
	var cur atomic.Pointer[WeightedRing]
	cur.Store(BuildWeighted(equalMembers(5), 0))
	hs := sampleHashes(2000)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				r := cur.Load()
				if o := r.Owner(hs[i%len(hs)]); o < -1 || o >= len(r.members) {
					t.Error("owner out of range")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		ms := equalMembers(5)
		ms[i%5].Weight = float64(i%4) * 0.25 // cycles 0, .25, .5, .75
		cur.Store(BuildWeighted(ms, 0))
	}
	stop.Store(true)
	wg.Wait()
}
