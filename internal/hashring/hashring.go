// Package hashring implements CliqueMap's key hash: a 128-bit KeyHash
// whose high word picks a key's logical primary shard (Hi mod N; the §5.1
// cohort rule lives in config.CellConfig.Cohort) and whose low word picks
// its bucket (Lo mod buckets, §3), plus the weighted ring the federation
// tier routes by.
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
