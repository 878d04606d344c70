// Package eviction implements the configurable cache replacement policies
// CliqueMap backends run (§4.2).
//
// Because GETs are RMAs, backends never see reads directly; clients report
// touches in batched background RPCs and backends "ingest access records
// en masse" into one of these policies. Every policy is plain single-node
// code behind one interface — the paper's point about RPC-side mutations
// keeping rich replacement logic easy to write.
//
// A policy tracks keys by their 128-bit KeyHash, the identity the index
// already gives a key (§3), and keeps them in one index-linked arena
// (lists), so tracking a key makes no heap object of its own.
//
// Provided policies: LRU, ARC (Megiddo & Modha), CLOCK, and SampledLFU.
package eviction

import (
	"fmt"

	"cliquemap/internal/hashring"
)

// Policy tracks resident keys and nominates eviction victims.
// Implementations are not goroutine-safe; the backend serializes access
// under its own lock (all calls already happen inside RPC handlers).
type Policy interface {
	// Add registers a newly inserted key.
	Add(h hashring.KeyHash)
	// Touch records an access (from ingested client access records).
	Touch(h hashring.KeyHash)
	// Remove drops a key (erased or evicted by the caller).
	Remove(h hashring.KeyHash)
	// Victim nominates the next key to evict, without removing it.
	Victim() (hashring.KeyHash, bool)
	// Len returns the tracked key count.
	Len() int
	// Name identifies the policy.
	Name() string
}

// Named is a Policy built by New. AddBytes and TouchBytes key it by
// hashring.DefaultHash of a raw key, for a caller that holds keys rather
// than hashes; the backend passes the hash it already has.
type Named struct{ Policy }

// AddBytes adds the key whose default hash is hashring.DefaultHash(key).
func (p Named) AddBytes(key []byte) { p.Add(hashring.DefaultHash(key)) }

// TouchBytes touches the key whose default hash is hashring.DefaultHash(key).
func (p Named) TouchBytes(key []byte) { p.Touch(hashring.DefaultHash(key)) }

// New constructs a policy by name: "lru", "arc", "clock", "slfu".
func New(name string, capacityHint int) (Named, error) {
	switch name {
	case "lru", "":
		return Named{NewLRU()}, nil
	case "arc":
		return Named{NewARC(capacityHint)}, nil
	case "clock":
		return Named{NewClock()}, nil
	case "slfu":
		return Named{NewSampledLFU()}, nil
	default:
		return Named{}, fmt.Errorf("eviction: unknown policy %q", name)
	}
}

// -------------------------------------------------------------- lists --

// none is the link of no node.
const none = -1

// node is one key's slot in a lists arena.
type node struct {
	h          hashring.KeyHash
	prev, next int32
	list       uint8 // which of the policy's lists holds it (ARC)
	ref        bool  // the reference bit (CLOCK)
}

// lists is the arena a policy's doubly linked lists share: every node lives
// in one slice, linked by index, a released node waits on a free chain
// (through next) for the next insert, and a key finds its node through one
// map. A key is on at most one list.
type lists struct {
	nodes []node
	at    map[hashring.KeyHash]int32
	free  int32
}

// list is one list of an arena: its two ends and its length.
type list struct {
	front, back int32
	n           int
}

func newLists() lists { return lists{at: make(map[hashring.KeyHash]int32), free: none} }

func newList() list { return list{front: none, back: none} }

// insert takes a node for h, linked into no list yet; its list field is 0
// (ARC's t1).
func (s *lists) insert(h hashring.KeyHash) int32 {
	i := s.free
	if i == none {
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, node{})
	} else {
		s.free = s.nodes[i].next
	}
	s.nodes[i] = node{h: h, prev: none, next: none}
	s.at[h] = i
	return i
}

// release forgets unlinked node i and chains it for reuse.
func (s *lists) release(i int32) {
	delete(s.at, s.nodes[i].h)
	s.nodes[i].next = s.free
	s.free = i
}

func (s *lists) pushFront(l *list, i int32) {
	s.nodes[i].prev, s.nodes[i].next = none, l.front
	if l.front != none {
		s.nodes[l.front].prev = i
	} else {
		l.back = i
	}
	l.front = i
	l.n++
}

func (s *lists) pushBack(l *list, i int32) {
	s.nodes[i].prev, s.nodes[i].next = l.back, none
	if l.back != none {
		s.nodes[l.back].next = i
	} else {
		l.front = i
	}
	l.back = i
	l.n++
}

func (s *lists) unlink(l *list, i int32) {
	n := &s.nodes[i]
	if n.prev != none {
		s.nodes[n.prev].next = n.next
	} else {
		l.front = n.next
	}
	if n.next != none {
		s.nodes[n.next].prev = n.prev
	} else {
		l.back = n.prev
	}
	l.n--
}

// ---------------------------------------------------------------- LRU --

// LRU evicts the least recently used key.
type LRU struct {
	s lists
	l list // front = most recent
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{s: newLists(), l: newList()} }

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Len implements Policy.
func (p *LRU) Len() int { return p.l.n }

// Add implements Policy.
func (p *LRU) Add(h hashring.KeyHash) {
	i, ok := p.s.at[h]
	if ok {
		p.s.unlink(&p.l, i)
	} else {
		i = p.s.insert(h)
	}
	p.s.pushFront(&p.l, i)
}

// Touch implements Policy.
func (p *LRU) Touch(h hashring.KeyHash) {
	if i, ok := p.s.at[h]; ok {
		p.s.unlink(&p.l, i)
		p.s.pushFront(&p.l, i)
	}
}

// Remove implements Policy.
func (p *LRU) Remove(h hashring.KeyHash) {
	if i, ok := p.s.at[h]; ok {
		p.s.unlink(&p.l, i)
		p.s.release(i)
	}
}

// Victim implements Policy.
func (p *LRU) Victim() (hashring.KeyHash, bool) {
	if p.l.back == none {
		return hashring.KeyHash{}, false
	}
	return p.s.nodes[p.l.back].h, true
}

// ---------------------------------------------------------------- ARC --

// ARC's lists: two resident (t1 recency, t2 frequency) and their ghosts.
const (
	t1 uint8 = iota
	t2
	b1
	b2
)

// ARC is the self-tuning Adaptive Replacement Cache: two resident lists
// (t1 recency, t2 frequency) plus two ghost lists (b1, b2) steering the
// adaptation parameter.
type ARC struct {
	c          int // target resident capacity for adaptation
	p          int // adaptation: target size of t1
	s          lists
	l          [4]list // t1, t2, b1, b2
	ghostLimit int
}

// NewARC returns an ARC policy adapting around capacityHint resident keys.
func NewARC(capacityHint int) *ARC {
	if capacityHint <= 0 {
		capacityHint = 1024
	}
	p := &ARC{c: capacityHint, s: newLists(), ghostLimit: capacityHint}
	for i := range p.l {
		p.l[i] = newList()
	}
	return p
}

// Name implements Policy.
func (p *ARC) Name() string { return "arc" }

// Len implements Policy.
func (p *ARC) Len() int { return p.l[t1].n + p.l[t2].n }

// move re-links node i at the front of list to.
func (p *ARC) move(i int32, to uint8) {
	p.s.unlink(&p.l[p.s.nodes[i].list], i)
	p.s.nodes[i].list = to
	p.s.pushFront(&p.l[to], i)
}

func (p *ARC) trimGhost(g uint8) {
	for l := &p.l[g]; l.n > p.ghostLimit; {
		i := l.back
		p.s.unlink(l, i)
		p.s.release(i)
	}
}

// Add implements Policy.
func (p *ARC) Add(h hashring.KeyHash) {
	i, ok := p.s.at[h]
	if !ok {
		p.s.pushFront(&p.l[t1], p.s.insert(h))
		return
	}
	switch p.s.nodes[i].list {
	case b1:
		// Ghost hit in recency list: grow p.
		p.p = min(p.p+max(1, p.l[b2].n/max(1, p.l[b1].n)), p.c)
	case b2:
		// Ghost hit in frequency list: shrink p.
		p.p = max(p.p-max(1, p.l[b1].n/max(1, p.l[b2].n)), 0)
	}
	p.move(i, t2)
}

// Touch implements Policy.
func (p *ARC) Touch(h hashring.KeyHash) {
	if i, ok := p.s.at[h]; ok && p.s.nodes[i].list <= t2 {
		p.move(i, t2)
	}
}

// Remove implements Policy.
func (p *ARC) Remove(h hashring.KeyHash) {
	i, ok := p.s.at[h]
	if !ok {
		return
	}
	switch p.s.nodes[i].list {
	case t1, t2:
		// Evicted/erased resident keys leave a ghost trace.
		ghost := p.s.nodes[i].list + b1
		p.move(i, ghost)
		p.trimGhost(ghost)
	default:
		p.s.unlink(&p.l[p.s.nodes[i].list], i)
		p.s.release(i)
	}
}

// Victim implements Policy: evict from t1 if it exceeds the adaptive
// target p, else from t2.
func (p *ARC) Victim() (hashring.KeyHash, bool) {
	r1, r2 := &p.l[t1], &p.l[t2]
	if r1.n > 0 && (r1.n >= p.p || r2.n == 0) {
		return p.s.nodes[r1.back].h, true
	}
	if r2.n > 0 {
		return p.s.nodes[r2.back].h, true
	}
	return hashring.KeyHash{}, false
}

// -------------------------------------------------------------- CLOCK --

// Clock approximates LRU with a reference bit and a sweeping hand.
type Clock struct {
	s    lists
	l    list  // ring order
	hand int32 // none: the next sweep starts at the front
}

// NewClock returns an empty CLOCK policy.
func NewClock() *Clock { return &Clock{s: newLists(), l: newList(), hand: none} }

// Name implements Policy.
func (p *Clock) Name() string { return "clock" }

// Len implements Policy.
func (p *Clock) Len() int { return p.l.n }

// Add implements Policy.
func (p *Clock) Add(h hashring.KeyHash) {
	if i, ok := p.s.at[h]; ok {
		p.s.nodes[i].ref = true
		return
	}
	p.s.pushBack(&p.l, p.s.insert(h))
}

// Touch implements Policy.
func (p *Clock) Touch(h hashring.KeyHash) {
	if i, ok := p.s.at[h]; ok {
		p.s.nodes[i].ref = true
	}
}

// Remove implements Policy.
func (p *Clock) Remove(h hashring.KeyHash) {
	if i, ok := p.s.at[h]; ok {
		if p.hand == i {
			p.hand = p.s.nodes[i].next
		}
		p.s.unlink(&p.l, i)
		p.s.release(i)
	}
}

// Victim implements Policy: sweep, clearing reference bits, until an
// unreferenced key is found.
func (p *Clock) Victim() (hashring.KeyHash, bool) {
	if p.l.n == 0 {
		return hashring.KeyHash{}, false
	}
	for sweeps := 0; sweeps < 2*p.l.n+1; sweeps++ {
		if p.hand == none {
			p.hand = p.l.front
		}
		n := &p.s.nodes[p.hand]
		if !n.ref {
			return n.h, true
		}
		n.ref = false
		p.hand = n.next
	}
	return p.s.nodes[p.l.front].h, true
}

// --------------------------------------------------------- SampledLFU --

// SampledLFU keeps per-key access counts and nominates the
// lowest-frequency key among a deterministic sample — the cheap LFU
// approximation used by several production caches.
type SampledLFU struct {
	slots  []lfuSlot
	pos    map[hashring.KeyHash]int32
	cursor int
	sample int
}

// lfuSlot is one tracked key and its access count.
type lfuSlot struct {
	h     hashring.KeyHash
	count uint64
}

// NewSampledLFU returns an empty sampled-LFU policy.
func NewSampledLFU() *SampledLFU {
	return &SampledLFU{pos: make(map[hashring.KeyHash]int32), sample: 8}
}

// Name implements Policy.
func (p *SampledLFU) Name() string { return "slfu" }

// Len implements Policy.
func (p *SampledLFU) Len() int { return len(p.slots) }

// Add implements Policy.
func (p *SampledLFU) Add(h hashring.KeyHash) {
	if i, ok := p.pos[h]; ok {
		p.slots[i].count++
		return
	}
	p.pos[h] = int32(len(p.slots))
	p.slots = append(p.slots, lfuSlot{h: h, count: 1})
}

// Touch implements Policy.
func (p *SampledLFU) Touch(h hashring.KeyHash) {
	if i, ok := p.pos[h]; ok {
		p.slots[i].count++
	}
}

// Remove implements Policy.
func (p *SampledLFU) Remove(h hashring.KeyHash) {
	i, ok := p.pos[h]
	if !ok {
		return
	}
	last := len(p.slots) - 1
	p.slots[i] = p.slots[last]
	p.pos[p.slots[i].h] = i
	p.slots = p.slots[:last]
	delete(p.pos, h)
}

// Victim implements Policy: scan a rotating sample window for the
// lowest-count key.
func (p *SampledLFU) Victim() (hashring.KeyHash, bool) {
	n := len(p.slots)
	if n == 0 {
		return hashring.KeyHash{}, false
	}
	best := -1
	for i := 0; i < p.sample && i < n; i++ {
		j := (p.cursor + i) % n
		if best < 0 || p.slots[j].count < p.slots[best].count {
			best = j
		}
	}
	p.cursor = (p.cursor + p.sample) % n
	return p.slots[best].h, true
}
