package stats

import (
	"bytes"
	"math/bits"
	"sort"
	"sync"
)

// TopK is a concurrent space-saving (Metwally et al.) heavy-hitter sketch:
// the key-heat telemetry behind the health plane's hot-key detection. The
// key space is split across power-of-two shards by the caller-supplied
// hash (the backend passes the key hash it already computed on the hot
// path, so feeding the sketch costs no extra hashing); each shard is an
// independent space-saving summary of capacity k guarded by its own
// mutex, so concurrent writers only contend when they touch keys that
// hash to the same shard.
//
// Guarantees (standard space-saving, per shard, hence globally since each
// key lives in exactly one shard): every stored count over-estimates the
// key's true count by at most its Err field, and Err ≤ N/k where N is the
// total number of increments. Any key whose true count exceeds N/k is
// guaranteed to be present. Entries are identified by the caller's 64-bit
// hash, so two distinct keys that collide on all 64 bits would merge into
// one entry — counts only inflate, which space-saving already permits.
type TopK struct {
	shards []topkShard
	mask   uint64
	k      int
}

// topkShard is a flat-array space-saving summary tuned for the backend's
// mutation hot path rather than asymptotics: a hit is a hash-keyed index
// lookup plus one increment (no heap, so hits pay nothing to keep an
// ordering current), and an eviction finds the exact minimum by scanning
// the contiguous counts array, stopping at the cached floor — the
// per-shard minimum only ever grows, so in the steady churn state most
// slots sit within one increment of it and the scan ends after a couple
// of probes. Key bytes live in reusable per-slot buffers and the hash
// index is k fixed chains through the slots, so steady-state evictions
// allocate nothing.
type topkShard struct {
	mu     sync.Mutex
	n      uint64
	floor  uint64   // lower bound on min(counts); mins only ever grow
	heads  []int32  // by bucket of the key hash: its first slot + 1, 0 if none
	counts []uint64 // estimated count per slot (scanned for min)
	items  []topkItem
}

type topkItem struct {
	key  []byte // reused across evictions; copied out on read
	hash uint64
	err  uint64
	next int32 // the next slot + 1 in this slot's bucket, 0 ends it
}

// bucket maps h onto one of the shard's chains.
func (s *topkShard) bucket(h uint64) *int32 {
	b, _ := bits.Mul64(h, uint64(len(s.heads)))
	return &s.heads[b]
}

// slot returns the slot tracking h, or -1.
func (s *topkShard) slot(h uint64) int {
	e := *s.bucket(h)
	for e != 0 && s.items[e-1].hash != h {
		e = s.items[e-1].next
	}
	return int(e) - 1
}

// link indexes slot j under its item's hash.
func (s *topkShard) link(j int) {
	head := s.bucket(s.items[j].hash)
	s.items[j].next, *head = *head, int32(j+1)
}

// unlink takes slot j off its bucket's chain.
func (s *topkShard) unlink(j int) {
	p := s.bucket(s.items[j].hash)
	for *p != int32(j+1) {
		p = &s.items[*p-1].next
	}
	*p = s.items[j].next
}

const topkShardCount = 8 // power of two

// NewTopK returns a sketch tracking up to k keys per shard. k ≤ 0 selects
// a default sized for hot-key detection.
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = 48
	}
	t := &TopK{
		shards: make([]topkShard, topkShardCount),
		mask:   topkShardCount - 1,
		k:      k,
	}
	for i := range t.shards {
		t.shards[i].heads = make([]int32, k)
		t.shards[i].counts = make([]uint64, 0, k)
		t.shards[i].items = make([]topkItem, 0, k)
	}
	return t
}

// K returns the per-shard capacity.
func (t *TopK) K() int { return t.k }

// Touch records one access to key. h is any well-mixed hash of key — the
// same key must always arrive with the same h. The byte slice is copied
// when the key enters the summary; it is never retained.
func (t *TopK) Touch(key []byte, h uint64) {
	s := &t.shards[h&t.mask]
	s.mu.Lock()
	s.n++
	if j := s.slot(h); j >= 0 {
		s.counts[j]++
	} else if len(s.counts) < t.k {
		s.counts = append(s.counts, 1)
		s.items = append(s.items, topkItem{key: append([]byte(nil), key...), hash: h})
		s.link(len(s.items) - 1)
	} else {
		// Space-saving eviction: the minimum-count key yields its slot and
		// its count becomes the newcomer's over-estimate bound. The min
		// scan stops at the first slot sitting on the cached floor — in
		// the steady churn state most slots hover within one increment of
		// it, so the scan usually ends after a couple of probes.
		m, mc := 0, s.counts[0]
		for j := 0; j < len(s.counts); j++ {
			if c := s.counts[j]; c < mc || c == s.floor {
				m, mc = j, c
				if c == s.floor {
					break
				}
			}
		}
		s.floor = mc
		s.unlink(m)
		it := &s.items[m]
		it.key = append(it.key[:0], key...)
		it.hash = h
		it.err = mc
		s.link(m)
		s.counts[m] = mc + 1
	}
	s.mu.Unlock()
}

// TouchString is Touch for callers without a precomputed hash; it uses
// FNV-1a so results are deterministic across runs.
func (t *TopK) TouchString(key string) {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	t.Touch([]byte(key), h)
}

// HotKey is one tracked key with its (over-)estimated count and the bound
// on the over-estimate (≤ N/k), so consumers can judge how trustworthy a
// ranking is. It travels as declared (MethodDebug's HotKeys).
type HotKey struct {
	Key   string `wire:"1"`
	Count uint64 `wire:"2"`
	Err   uint64 `wire:"3"`
}

// HotCand is a HotKey whose key is still bytes, in a buffer it owns.
type HotCand struct {
	Key   []byte
	Count uint64
	Err   uint64
}

// AppendTop selects the up-to-n hottest tracked keys (n ≤ 0: all) into
// sel[:0], hottest first, ties broken by key. It is a bounded selection:
// each shard is walked once under its lock, and only a key that beats the
// current n-th is copied out of its slot — into a Key buffer sel's elements
// already own, so a caller that hands the same sel back allocates nothing
// once it has warmed.
func (t *TopK) AppendTop(sel []HotCand, n int) []HotCand {
	sel = sel[:0]
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for j := range s.items {
			key, count := s.items[j].key, s.counts[j]
			at := sort.Search(len(sel), func(k int) bool { // the slot's rank among the survivors
				return count > sel[k].Count || count == sel[k].Count && bytes.Compare(key, sel[k].Key) < 0
			})
			if n > 0 && len(sel) == n {
				if at == n {
					continue // does not beat the n-th
				}
			} else if len(sel) < cap(sel) {
				sel = sel[:len(sel)+1] // with whatever buffer the element holds
			} else {
				sel = append(sel, HotCand{})
			}
			// The last element — just exposed, or the n-th, which falls
			// off — gives its buffer to the newcomer.
			buf := sel[len(sel)-1].Key
			copy(sel[at+1:], sel[at:])
			sel[at] = HotCand{Key: append(buf[:0], key...), Count: count, Err: s.items[j].err}
		}
		s.mu.Unlock()
	}
	return sel
}

// TopN returns up to n tracked keys, hottest first. Ties break by key for
// deterministic output.
func (t *TopK) TopN(n int) []HotKey {
	sel := t.AppendTop(nil, n)
	out := make([]HotKey, len(sel))
	for i, c := range sel {
		out[i] = HotKey{Key: string(c.Key), Count: c.Count, Err: c.Err}
	}
	return out
}

// Total returns the total number of increments N the sketch has absorbed.
func (t *TopK) Total() uint64 {
	var n uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// Tracked returns the number of keys currently in the summary.
func (t *TopK) Tracked() int {
	var n int
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Reset empties the sketch.
func (t *TopK) Reset() {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.n = 0
		s.floor = 0
		s.counts = s.counts[:0]
		s.items = s.items[:0]
		clear(s.heads)
		s.mu.Unlock()
	}
}
