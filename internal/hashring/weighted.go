package hashring

import (
	"fmt"
	"math/bits"
	"sort"
)

// This file grows hashring beyond the intra-cell key hash into
// a weighted consistent-hash ring for the federation tier (§2, §7 — a
// fleet of O(10²) independent cells). Each member owns a number of
// virtual nodes proportional to its weight; a key routes to the member
// owning the first virtual node at or after the key's ring position.
// Changing one member's weight only moves keys into or out of that
// member's arcs, so rebalances shift ~1/N of the keyspace, not all of it.

// DefaultVnodes is the number of virtual nodes a member of weight 1.0
// places on the ring. Larger counts tighten the variance of per-member
// ownership shares at the cost of a bigger (still tiny) sorted array.
const DefaultVnodes = 128

// Member is one weighted ring participant. Weight 0 (or negative) places
// no virtual nodes: the member stays listed but owns no keys — how the
// tier routes around a dead or fully demoted cell without forgetting it.
type Member struct {
	Name   string
	Weight float64
}

type ringPoint struct {
	pos    uint64
	member int32
}

// WeightedRing is an immutable snapshot of a weighted consistent-hash
// ring. Mutation is rebuild-and-swap: the router holds the current ring
// behind an atomic pointer, so lookups are lock-free and a re-weight
// never tears an in-flight route.
type WeightedRing struct {
	members []Member
	points  []ringPoint // sorted by pos
}

// splitmix64 is the finalizer from the splitmix64 PRNG — a cheap full-
// avalanche bijection used to place virtual nodes and to decorrelate the
// tier-level ring position from the intra-cell Primary (which consumes
// h.Hi directly).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RingPos maps a KeyHash to its position on the weighted ring. Both hash
// words feed in so tier placement is independent of both the intra-cell
// Primary (Hi) and Bucket (Lo) choices.
func RingPos(h KeyHash) uint64 {
	return splitmix64(h.Hi ^ bits.RotateLeft64(h.Lo, 32))
}

// BuildWeighted constructs a ring over members, placing
// round(weight·vnodes) virtual nodes per member (vnodes ≤ 0 takes
// DefaultVnodes). Construction is fully deterministic: virtual-node
// positions derive from hashing "name#index", so two builds from equal
// inputs route identically, and a member re-added at the same weight
// reclaims exactly its old arcs.
func BuildWeighted(members []Member, vnodes int) *WeightedRing {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &WeightedRing{members: append([]Member(nil), members...)}
	for i, m := range r.members {
		n := int(m.Weight*float64(vnodes) + 0.5)
		if m.Weight <= 0 {
			n = 0
		}
		for v := 0; v < n; v++ {
			h := DefaultHash([]byte(fmt.Sprintf("%s#%d", m.Name, v)))
			r.points = append(r.points, ringPoint{pos: RingPos(h), member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].pos != r.points[b].pos {
			return r.points[a].pos < r.points[b].pos
		}
		return r.points[a].member < r.points[b].member
	})
	return r
}

// Owner returns the index into Members of the member owning h, or -1 if
// no member has positive weight.
func (r *WeightedRing) Owner(h KeyHash) int {
	if len(r.points) == 0 {
		return -1
	}
	pos := RingPos(h)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the lowest
	}
	return int(r.points[i].member)
}

// OwnerName returns the owning member's name, or "" if the ring is empty.
func (r *WeightedRing) OwnerName(h KeyHash) string {
	i := r.Owner(h)
	if i < 0 {
		return ""
	}
	return r.members[i].Name
}

// Shares returns each member's exact fraction of the keyspace, computed
// from arc lengths (not sampling): the arc ending at each virtual node
// belongs to that node's member. Sums to 1 for a non-empty ring.
func (r *WeightedRing) Shares() []float64 {
	shares := make([]float64, len(r.members))
	if len(r.points) == 0 {
		return shares
	}
	const scale = 1.0 / (1 << 32) / (1 << 32) // 2^-64 without overflow
	prev := r.points[len(r.points)-1].pos     // arc wraps from the last point
	for _, p := range r.points {
		arc := p.pos - prev // uint64 wraparound handles the wrap arc
		shares[p.member] += float64(arc) * scale
		prev = p.pos
	}
	return shares
}
