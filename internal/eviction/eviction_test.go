package eviction

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cliquemap/internal/hashring"
)

// k is the hash a backend would track name by.
func k(name string) hashring.KeyHash { return hashring.DefaultHash([]byte(name)) }

func allPolicies() []Policy {
	return []Policy{NewLRU(), NewARC(64)}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"lru", "arc", ""} {
		p, err := New(name, 16)
		if err != nil || p.Policy == nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	for _, name := range []string{"clock", "slfu", "mru"} {
		if _, err := New(name, 16); !errors.Is(err, ErrUnknownPolicy) {
			t.Errorf("New(%q): %v, want ErrUnknownPolicy", name, err)
		}
	}
}

// TestNamedBytesAreDefaultHashes: the byte-keyed pair tracks a key by its
// default hash, so a byte-keyed caller and a hash-keyed one agree.
func TestNamedBytesAreDefaultHashes(t *testing.T) {
	p, _ := New("lru", 0)
	p.AddBytes([]byte("a"))
	p.AddBytes([]byte("b"))
	p.TouchBytes([]byte("a"))
	if v, _ := p.Victim(); v != k("b") {
		t.Errorf("victim %v, want b's hash", v)
	}
}

// TestPolicyContract checks the invariants every policy must satisfy.
func TestPolicyContract(t *testing.T) {
	for _, p := range allPolicies() {
		t.Run(p.Name(), func(t *testing.T) {
			if _, ok := p.Victim(); ok {
				t.Error("empty policy nominated a victim")
			}
			if p.Len() != 0 {
				t.Error("empty policy has nonzero Len")
			}
			for i := 0; i < 10; i++ {
				p.Add(k(fmt.Sprintf("k%d", i)))
			}
			if p.Len() != 10 {
				t.Errorf("Len = %d, want 10", p.Len())
			}
			p.Add(k("k3")) // duplicate add must not grow
			if p.Len() != 10 {
				t.Errorf("duplicate add grew Len to %d", p.Len())
			}
			v, ok := p.Victim()
			if !ok {
				t.Fatal("no victim")
			}
			p.Remove(v)
			if p.Len() != 9 {
				t.Errorf("Len after remove = %d", p.Len())
			}
			p.Remove(k("absent")) // must be a no-op
			if p.Len() != 9 {
				t.Error("removing absent key changed Len")
			}
			p.Touch(k("absent")) // must not insert
			if p.Len() != 9 {
				t.Error("touching absent key changed Len")
			}
			// Drain completely.
			for p.Len() > 0 {
				v, ok := p.Victim()
				if !ok {
					t.Fatal("victim disappeared with items resident")
				}
				p.Remove(v)
			}
			if _, ok := p.Victim(); ok {
				t.Error("drained policy nominated a victim")
			}
		})
	}
}

// TestPolicyTrackingAllocatesNothing: once a policy's arena and key table
// have grown to its population, inserting a key, touching it and evicting
// one makes no heap object.
func TestPolicyTrackingAllocatesNothing(t *testing.T) {
	hashes := make([]hashring.KeyHash, 4096)
	for i := range hashes {
		hashes[i] = k(fmt.Sprintf("k%d", i))
	}
	for _, p := range []Policy{NewLRU(), NewARC(1024)} {
		t.Run(p.Name(), func(t *testing.T) {
			next := 0
			churn := func() {
				h := hashes[next%len(hashes)]
				next++
				p.Add(h)
				p.Touch(h)
				if p.Len() > 1024 {
					v, _ := p.Victim()
					p.Remove(v)
				}
			}
			for i := 0; i < 4*len(hashes); i++ {
				churn()
			}
			if got := testing.AllocsPerRun(1000, churn); got != 0 {
				t.Errorf("%v allocations per insert + touch + eviction", got)
			}
		})
	}
}

func TestLRUOrder(t *testing.T) {
	p := NewLRU()
	p.Add(k("a"))
	p.Add(k("b"))
	p.Add(k("c"))
	if v, _ := p.Victim(); v != k("a") {
		t.Errorf("victim = %v, want a", v)
	}
	p.Touch(k("a")) // a becomes most recent
	if v, _ := p.Victim(); v != k("b") {
		t.Errorf("after touch, victim = %v, want b", v)
	}
	p.Remove(k("b"))
	if v, _ := p.Victim(); v != k("c") {
		t.Errorf("after remove, victim = %v, want c", v)
	}
}

// TestARCAdaptsToFrequency: keys re-added after ghost eviction from
// the recency side move to the frequency side and survive over one-hit
// wonders.
func TestARCAdaptsToFrequency(t *testing.T) {
	p := NewARC(4)
	p.Add(k("hot"))
	p.Add(k("hot")) // second hit: promoted to t2
	for i := 0; i < 4; i++ {
		p.Add(k(fmt.Sprintf("scan%d", i))) // recency pollution
	}
	// Victim should come from the scan keys (t1), not the hot key (t2).
	v, ok := p.Victim()
	if !ok {
		t.Fatal("no victim")
	}
	if v == k("hot") {
		t.Error("ARC evicted the frequent key under scan pollution")
	}
}

func TestARCGhostResurrection(t *testing.T) {
	p := NewARC(4)
	p.Add(k("x"))
	p.Remove(k("x")) // leaves a ghost in b1
	if p.Len() != 0 {
		t.Fatalf("resident len = %d", p.Len())
	}
	p.Add(k("x")) // ghost hit: straight into t2
	if p.Len() != 1 {
		t.Fatalf("after resurrection len = %d", p.Len())
	}
	p.Add(k("y"))
	// x lives in t2; victim should be the one-hit y from t1.
	if v, _ := p.Victim(); v != k("y") {
		t.Errorf("victim = %v, want y", v)
	}
}

func TestARCGhostListsBounded(t *testing.T) {
	p := NewARC(8)
	for i := 0; i < 1000; i++ {
		h := k(fmt.Sprintf("k%d", i))
		p.Add(h)
		p.Remove(h)
	}
	if p.l[b1].n > 8 || p.l[b2].n > 8 {
		t.Errorf("ghost lists unbounded: b1=%d b2=%d", p.l[b1].n, p.l[b2].n)
	}
	if len(p.s.nodes) > 9 {
		t.Errorf("arena holds %d nodes for 8 ghosts: released nodes are not reused", len(p.s.nodes))
	}
}

// TestLRUHotKeySurvives is a behavioural sanity check: under a loop
// with one hot key, LRU must keep the hot key resident.
func TestLRUHotKeySurvives(t *testing.T) {
	p := NewLRU()
	p.Add(k("hot"))
	for round := 0; round < 50; round++ {
		p.Add(k(fmt.Sprintf("cold%d", round)))
		p.Touch(k("hot"))
		// Evict one per round to stay near capacity 2.
		if p.Len() > 2 {
			v, _ := p.Victim()
			if v == k("hot") {
				t.Fatal("LRU evicted the constantly touched key")
			}
			p.Remove(v)
		}
	}
}

// goldenDigests are the victim digests of victimDigest's stream, taken on
// the string-keyed policies (container/list nodes, keys held as strings)
// that the hash-keyed arena replaced. Equal digests mean every policy picks
// exactly the victims it picked before.
var goldenDigests = map[string]string{
	"lru": "32f6492a408212c1",
	"arc": "016b0942ff83ebd1",
}

// victimDigest runs one fixed seeded stream of Add, Touch, Remove and
// Victim over 2 048 named keys (half the picks from a hot eighth) through p,
// evicting down to 512 resident after each step, and digests the names of
// the victims it nominated, mapped back from their hashes.
func victimDigest(p Policy) string {
	const keys, capacity, steps = 2048, 512, 60_000
	names := make([]string, keys)
	hashes := make([]hashring.KeyHash, keys)
	nameOf := make(map[hashring.KeyHash]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%04d", i)
		hashes[i] = k(names[i])
		nameOf[hashes[i]] = names[i]
	}
	rng := rand.New(rand.NewSource(31))
	pick := func() hashring.KeyHash {
		if rng.Intn(2) == 0 {
			return hashes[rng.Intn(keys/8)]
		}
		return hashes[rng.Intn(keys)]
	}
	sum := sha256.New()
	victim := func() hashring.KeyHash {
		h, ok := p.Victim()
		name := nameOf[h]
		if !ok {
			name = "-"
		}
		fmt.Fprintln(sum, name)
		return h
	}
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(20); {
		case r < 10:
			p.Add(pick())
		case r < 15:
			p.Touch(pick())
		case r < 17:
			p.Remove(pick())
		default:
			victim()
		}
		for p.Len() > capacity {
			p.Remove(victim())
		}
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

func TestPolicyVictimsGolden(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewARC(512)} {
		if got, want := victimDigest(p), goldenDigests[p.Name()]; got != want {
			t.Errorf("%s: victim digest %s, want %s", p.Name(), got, want)
		}
	}
}

func BenchmarkLRUTouch(b *testing.B) {
	p := NewLRU()
	hashes := make([]hashring.KeyHash, 10000)
	for i := range hashes {
		hashes[i] = k(fmt.Sprintf("k%d", i))
		p.Add(hashes[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(hashes[i%len(hashes)])
	}
}

func BenchmarkARCAdd(b *testing.B) {
	p := NewARC(10000)
	hashes := make([]hashring.KeyHash, 16384)
	for i := range hashes {
		hashes[i] = k(fmt.Sprintf("k%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(hashes[i%len(hashes)])
		if p.Len() > 10000 {
			v, _ := p.Victim()
			p.Remove(v)
		}
	}
}

// arenaHashes draws n distinct hashes whose first probe in a 64-slot table
// is one of its last 8 slots or its first 4, so every table up to 64 slots
// packs them into one run that wraps from the end to the start.
func arenaHashes(rng *rand.Rand, n int) []hashring.KeyHash {
	seen := make(map[hashring.KeyHash]bool, n)
	out := make([]hashring.KeyHash, 0, n)
	for len(out) < n {
		h := hashring.KeyHash{Hi: rng.Uint64(), Lo: rng.Uint64()}
		if j := home(h, 63); (j >= 56 || j < 4) && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// TestArenaMatchesMap runs 1 M random inserts, lookups and removes against
// the arena's key table and a reference map. Most ops run on 64 hashes
// that collide and wrap the table, with up to 31 resident (a 64-slot
// table), so a remove shifts a long run backward; the rest on 4 096
// random hashes, which grow the table to 8 192 slots under churn.
func TestArenaMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, phase := range []struct {
		pool     []hashring.KeyHash
		resident int
		ops      int
	}{
		{arenaHashes(rng, 64), 31, 900_000},
		{func() []hashring.KeyHash {
			hs := make([]hashring.KeyHash, 4096)
			for i := range hs {
				hs[i] = hashring.KeyHash{Hi: rng.Uint64(), Lo: rng.Uint64()}
			}
			return hs
		}(), 4096, 100_000},
	} {
		s, ref := newLists(), make(map[hashring.KeyHash]int32)
		check := func(h hashring.KeyHash) {
			i, ok := s.find(h)
			want, wok := ref[h]
			if ok != wok || (ok && i != want) {
				t.Fatalf("find(%v) = (%d, %v), the map holds (%d, %v)", h, i, ok, want, wok)
			}
		}
		for op := 0; op < phase.ops; op++ {
			h := phase.pool[rng.Intn(len(phase.pool))]
			_, in := ref[h]
			switch r := rng.Intn(3); {
			case r == 0 && !in && len(ref) < phase.resident:
				ref[h] = s.insert(h)
			case r == 1 && in:
				s.release(ref[h])
				delete(ref, h)
			}
			check(h)
			if op%4096 == 0 {
				for _, h := range phase.pool {
					check(h)
				}
				if s.n != len(ref) || 2*s.n > len(s.at) {
					t.Fatalf("table holds %d keys in %d slots, the map %d", s.n, len(s.at), len(ref))
				}
			}
		}
	}
}
