// Package hashring implements CliqueMap's key placement: a 128-bit KeyHash
// that uniquely identifies a backend and a Bucket (§3), plus the replica
// cohort rule of §5.1 — for each key, a consistent hash determines the
// logical primary backend i, and copies live on physical backends i, i+1,
// and i+2 (all mod N).
//
// Hash functions are customizable (§6.5 added customizable hash functions
// for disaggregation users); the default is a double FNV-1a producing 128
// bits, giving the paper's "(very) rare 128-bit hash collision" property.
package hashring

// KeyHash is the 128-bit hash tag stored in IndexEntries. Collisions at
// this width are treated as effectively impossible, but clients still
// verify the full key in the fetched DataEntry (§3, step 5b).
type KeyHash struct {
	Hi, Lo uint64
}

// Zero reports whether h is the all-zero hash, reserved for empty entries.
func (h KeyHash) Zero() bool { return h.Hi == 0 && h.Lo == 0 }

// HashFunc maps a key to a KeyHash. Implementations must never return the
// zero hash for any key.
type HashFunc func(key []byte) KeyHash

// OrDefault is the canonical nil-to-default rule: every layer (client,
// backend, cell, public API) that accepts an optional HashFunc resolves
// it through here, so there is exactly one place that decides what "no
// hash configured" means.
func OrDefault(h HashFunc) HashFunc {
	if h == nil {
		return DefaultHash
	}
	return h
}

// FromPair adapts a user-supplied (hi, lo) pair function into a HashFunc,
// enforcing the never-zero invariant the index relies on (the zero hash
// marks empty slots).
func FromPair(f func(key []byte) (hi, lo uint64)) HashFunc {
	return func(key []byte) KeyHash {
		hi, lo := f(key)
		if hi == 0 && lo == 0 {
			lo = 1
		}
		return KeyHash{Hi: hi, Lo: lo}
	}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DefaultHash is a double FNV-1a: two independent 64-bit streams seeded
// differently, concatenated into 128 bits.
func DefaultHash(key []byte) KeyHash {
	var hi, lo uint64 = fnvOffset64, fnvOffset64 ^ 0x9e3779b97f4a7c15
	for _, c := range key {
		hi = (hi ^ uint64(c)) * fnvPrime64
		lo = (lo ^ uint64(c^0xa5)) * fnvPrime64
	}
	// Final avalanche so short keys spread across buckets.
	hi ^= hi >> 33
	hi *= 0xff51afd7ed558ccd
	hi ^= hi >> 33
	lo ^= lo >> 29
	lo *= 0xc4ceb9fe1a85ec53
	lo ^= lo >> 29
	if hi == 0 && lo == 0 {
		lo = 1 // never the reserved empty hash
	}
	return KeyHash{Hi: hi, Lo: lo}
}

// Ring maps KeyHashes to backends and buckets for a cell of N backends.
type Ring struct {
	n    int
	hash HashFunc
}

// New returns a ring over n backends using hash (DefaultHash if nil).
func New(n int, hash HashFunc) *Ring {
	if n <= 0 {
		panic("hashring: non-positive backend count")
	}
	if hash == nil {
		hash = DefaultHash
	}
	return &Ring{n: n, hash: hash}
}

// N returns the backend count.
func (r *Ring) N() int { return r.n }

// Hash returns the KeyHash for key.
func (r *Ring) Hash(key []byte) KeyHash { return r.hash(key) }

// Primary returns the logical primary backend for h, as if no replication
// existed (§5.1).
func (r *Ring) Primary(h KeyHash) int {
	return int(h.Hi % uint64(r.n))
}

// Cohort returns the physical backends hosting copies of h for the given
// replica count: i, i+1, ..., i+replicas-1 (mod N). replicas is clamped to
// N.
func (r *Ring) Cohort(h KeyHash, replicas int) []int {
	if replicas > r.n {
		replicas = r.n
	}
	if replicas < 1 {
		replicas = 1
	}
	p := r.Primary(h)
	out := make([]int, replicas)
	for i := range out {
		out[i] = (p + i) % r.n
	}
	return out
}

// Bucket returns the bucket index for h in a table of nBuckets buckets.
// The low word is used so bucket choice is independent of backend choice.
func (r *Ring) Bucket(h KeyHash, nBuckets int) int {
	if nBuckets <= 0 {
		panic("hashring: non-positive bucket count")
	}
	return int(h.Lo % uint64(nBuckets))
}
